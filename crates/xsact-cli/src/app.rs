//! The demo application: dataset loading, search, selection, comparison —
//! the terminal analogue of the paper's Figure 5 result page, wired through
//! a [`Workbench`] query with typed errors.

use crate::args::{Args, ClientArgs, CorpusArgs, Dataset, ServeArgs};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsact::prelude::*;
use xsact::serve::{serve_tcp, FaultPlan, END_MARKER, MAX_TOP};
use xsact_data::{
    fixtures, JobsGen, JobsGenConfig, MovieGenConfig, MoviesGen, OutdoorGen, OutdoorGenConfig,
    ReviewsGen, ReviewsGenConfig,
};

/// Loads the chosen dataset.
fn load_dataset(args: &Args) -> Document {
    match args.dataset {
        Dataset::Figure1 => fixtures::figure1_document(),
        Dataset::Reviews => {
            ReviewsGen::new(ReviewsGenConfig { seed: args.seed, ..Default::default() }).generate()
        }
        Dataset::Outdoor => {
            OutdoorGen::new(OutdoorGenConfig { seed: args.seed, ..Default::default() }).generate()
        }
        Dataset::Movies => {
            MoviesGen::new(MovieGenConfig { seed: args.seed, movies: 250, ..Default::default() })
                .generate()
        }
        Dataset::Jobs => {
            JobsGen::new(JobsGenConfig { seed: args.seed, ..Default::default() }).generate()
        }
    }
}

/// One full demo run. Returns the text to print, so the logic is testable
/// without capturing stdout.
pub fn run(args: &Args) -> Result<String, XsactError> {
    // Every successful exit of the inner run hands back the executor
    // counters, so the --explain line is appended in exactly one place.
    let sink = args.trace.then(TraceSink::new);
    let (mut out, stats) = run_single(args, sink.as_ref())?;
    if args.explain {
        out.push_str(&explain_line(stats));
    }
    // The trace table is appended last, after every result line, so
    // scripted consumers can strip it without touching the answer.
    if let Some(sink) = &sink {
        out.push_str("\ntrace:\n");
        out.push_str(&sink.take().render());
    }
    Ok(out)
}

fn run_single(
    args: &Args,
    trace: Option<&TraceSink>,
) -> Result<(String, ExecutorStats), XsactError> {
    let mut out = String::new();
    let doc = load_dataset(args);
    let wb = match &args.load_index {
        // A persisted image skips the indexing scan; the loader rejects an
        // image whose document is not this dataset/seed's.
        Some(path) => {
            let mut file = std::fs::File::open(path)?;
            let wb = Workbench::from_persisted_index(doc, &mut file)?;
            out.push_str(&format!("index: restored from {path}\n"));
            wb
        }
        None => Workbench::from_document(doc),
    };
    if let Some(path) = &args.save_index {
        xsact::save_index_atomic(&wb, std::path::Path::new(path))?;
        out.push_str(&format!("index: saved to {path}\n"));
    }
    out.push_str(&format!("dataset: {:?} ({} XML nodes)\n", args.dataset, wb.document().len()));

    let pipeline = match trace {
        Some(sink) => wb.query_traced(&args.query, sink),
        None => wb.query(&args.query),
    }?;
    let mut pipeline =
        pipeline.ranked(args.ranked).size_bound(args.bound).threshold(args.threshold);
    pipeline = if args.select.is_empty() {
        // The demo defaults to the first four checkboxes; --top overrides.
        pipeline.take(args.top.unwrap_or(4))
    } else {
        pipeline.select(args.select.iter().copied())
    };
    let query = pipeline.query_text();

    // Result list with snippet-ish labels (Figure 5's result page).
    // --select picks positions in the full list, so it disables the
    // bounded listing (and with it --top, mirroring the builder's
    // select-over-take precedence).
    let bounded = args.ranked && args.top.is_some() && args.select.is_empty();
    let best;
    let listed: &[CorpusHit] = if bounded {
        // Bounded mode: the streaming executor materialises only the
        // best k results — the full ranking never exists.
        best = pipeline.selection()?;
        &best
    } else {
        &pipeline.ranking().hits
    };
    let top = if bounded { "top " } else { "" };
    let ranked = if args.ranked { " (ranked)" } else { "" };
    out.push_str(&format!("query {query}: {top}{} results{ranked}\n", listed.len()));
    for (i, hit) in listed.iter().enumerate() {
        out.push_str(&format!("  [{:>2}] {}", i + 1, hit.result.label));
        if let Some(score) = hit.score {
            out.push_str(&format!("  (score {score:.3})"));
        }
        out.push('\n');
    }
    let stats = pipeline.executor_stats();
    if listed.is_empty() {
        // `--top 0` told the bounded executor to keep nothing, which is
        // not the same as the query matching nothing — a matching query
        // always scans at least one posting, so zeroed counters mean the
        // planner proved the query hopeless.
        if bounded && args.top == Some(0) && !stats.is_zero() {
            out.push_str("(--top 0 leaves fewer than the two results a comparison needs)\n");
        } else {
            out.push_str("no results — nothing to compare\n");
        }
        return Ok((out, stats));
    }

    // Selection: the ticked checkboxes (typed out-of-range errors).
    let selected = pipeline.selection()?;
    out.push_str(&format!(
        "\ncomparing {} results (L = {}, x = {}%, {}):\n",
        selected.len(),
        args.bound,
        args.threshold,
        args.algorithm.name()
    ));

    if args.stats {
        for hit in &selected {
            let rf = wb.subtree_features(hit.result.root, &hit.result.label);
            out.push_str(&format!("\nstatistics of {}:\n", rf.label()));
            for line in rf.stat_panel(6) {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out.push('\n');
    }
    if args.show_xml {
        for hit in &selected {
            out.push_str(&format!("\n{}\n", wb.result_xml(&hit.result)));
        }
        out.push('\n');
    }

    if selected.len() < 2 {
        out.push_str("(need at least two selected results for a comparison table)\n");
        return Ok((out, pipeline.executor_stats()));
    }

    let outcome: ComparisonOutcome = pipeline.compare(args.algorithm)?;
    out.push_str(&outcome.table());
    out.push_str(&format!(
        "DoD = {} (upper bound {}), {} rounds, {} moves, {:?}\n",
        outcome.dod(),
        outcome.dod_upper_bound(),
        outcome.stats.rounds,
        outcome.stats.moves,
        outcome.stats.elapsed
    ));
    Ok((out, pipeline.executor_stats()))
}

/// Renders [`ExecutorStats`] as the one-line `--explain` report (single
/// mode, corpus mode, and the serve shutdown summary all use this).
fn explain_line(stats: ExecutorStats) -> String {
    format!("executor: {stats}\n")
}

/// One corpus-mode run: ingest a directory (or generate a synthetic
/// fleet), fan the query out across shards, print the merged ranking and
/// the cross-document comparison table.
pub fn run_corpus(args: &CorpusArgs) -> Result<String, XsactError> {
    let sink = args.trace.then(TraceSink::new);
    let (mut out, stats) = run_corpus_inner(args, sink.as_ref())?;
    if args.explain {
        out.push_str(&explain_line(stats));
    }
    if let Some(sink) = &sink {
        out.push_str("\ntrace:\n");
        out.push_str(&sink.take().render());
    }
    Ok(out)
}

fn run_corpus_inner(
    args: &CorpusArgs,
    trace: Option<&TraceSink>,
) -> Result<(String, ExecutorStats), XsactError> {
    // Validate the cheap knobs before paying for ingestion and fan-out —
    // compare() would reject them anyway, but only after the whole query.
    xsact::validate_config(&DfsConfig { size_bound: args.bound, threshold_pct: args.threshold })?;
    let mut out = String::new();
    let ingest_start = Instant::now();
    let corpus = build_corpus(
        (args.dir.as_deref(), args.index_dir.as_deref()),
        (args.docs, args.movies, args.seed),
        args.shards,
    )?;
    let ingested = ingest_start.elapsed();
    let total_nodes: usize =
        (0..corpus.len()).map(|i| corpus.workbench(DocId(i as u32)).document().len()).sum();
    out.push_str(&format!(
        "corpus: {} documents, {} XML nodes, {} shards (effective {}), ingested in {:.1?}\n",
        corpus.len(),
        total_nodes,
        corpus.shards(),
        corpus.effective_shards(),
        ingested
    ));

    let query = match trace {
        Some(sink) => corpus.query_traced(&args.query, sink),
        None => corpus.query(&args.query),
    }?
    .take(args.top)
    .size_bound(args.bound)
    .threshold(args.threshold);
    let query_start = Instant::now();
    let ranking = query.ranking();
    let fanned_out = query_start.elapsed();
    let matched_docs: std::collections::HashSet<_> = ranking.hits.iter().map(|h| h.doc).collect();
    out.push_str(&format!(
        "query {}: {} results from {} of {} documents in {:.1?}\n",
        query.query_text(),
        ranking.hits.len(),
        matched_docs.len(),
        corpus.len(),
        fanned_out
    ));
    out.push_str(&ranking.render(args.top.max(8)));
    if ranking.hits.is_empty() {
        out.push_str("no results — nothing to compare\n");
        return Ok((out, query.executor_stats()));
    }
    if ranking.hits.len() < 2 {
        out.push_str("(need at least two results for a comparison table)\n");
        return Ok((out, query.executor_stats()));
    }
    if args.top < 2 {
        out.push_str(&format!(
            "(--top {} leaves fewer than the two results a comparison needs)\n",
            args.top
        ));
        return Ok((out, query.executor_stats()));
    }

    let outcome = query.compare(args.algorithm)?;
    let compared = query.selection()?;
    out.push_str(&format!(
        "\ncomparing the top {} (L = {}, x = {}%, {}):\n",
        compared.len(),
        args.bound,
        args.threshold,
        args.algorithm.name()
    ));
    out.push_str(&outcome.table());
    let spanned: std::collections::HashSet<_> = compared.iter().map(|h| h.doc).collect();
    out.push_str(&format!(
        "DoD = {} over {} results from {} document{}\n",
        outcome.dod(),
        compared.len(),
        spanned.len(),
        if spanned.len() == 1 { "" } else { "s" }
    ));
    Ok((out, query.executor_stats()))
}

/// The corpus of corpus and serve mode, from the source flags they share:
/// a directory with an optional index cache, or a synthetic `(docs, movies,
/// seed)` fleet; `shards` 0 keeps the machine's available parallelism.
fn build_corpus(
    (dir, index_dir): (Option<&str>, Option<&str>),
    (docs, movies, seed): (usize, usize, u64),
    shards: usize,
) -> Result<Corpus, XsactError> {
    let mut corpus = match (dir, index_dir) {
        (Some(dir), Some(cache)) => Corpus::from_dir_cached(dir, cache)?,
        (Some(dir), None) => Corpus::from_dir(dir)?,
        (None, Some(_)) => {
            // A synthetic fleet is regenerated from scratch every run, so a
            // cache it would never read back is a configuration mistake.
            return Err(XsactError::InvalidConfig(
                "--index-dir requires --dir (a synthetic fleet never reloads its cache)".into(),
            ));
        }
        (None, None) => Corpus::synthetic_movies(docs, movies, seed),
    };
    if shards > 0 {
        corpus.set_shards(shards);
    }
    Ok(corpus)
}

/// The `serve` subcommand: run the corpus server over TCP until a client
/// sends `SHUTDOWN`. The listening line is printed (and flushed)
/// immediately so scripts can tell the server is up; the returned string
/// is the post-shutdown counter summary.
pub fn run_serve(args: &ServeArgs) -> Result<String, XsactError> {
    if args.top > MAX_TOP {
        return Err(XsactError::InvalidConfig(format!(
            "--top {} exceeds the protocol's limit of {MAX_TOP}",
            args.top
        )));
    }
    let corpus = Arc::new(build_corpus(
        (args.dir.as_deref(), args.index_dir.as_deref()),
        (args.docs, args.movies, args.seed),
        args.shards,
    )?);
    // Fault injection is armed from the environment exactly once, at
    // startup — request paths only ever see the parsed plan.
    let faults = FaultPlan::from_env().map_err(XsactError::InvalidConfig)?;
    if faults.is_armed() {
        eprintln!("xsact-serve: fault injection armed (chaos testing)");
    }
    let config = ServeConfig {
        queue_capacity: args.queue,
        default_top: args.top,
        budget: args.budget,
        slow_query: args.slow_query_ms.map(Duration::from_millis),
        deadline: args.deadline_ms.map(Duration::from_millis),
        cache_entries: args.cache_entries,
        cache_bytes: args.cache_bytes,
        faults,
    };
    let server = CorpusServer::start(Arc::clone(&corpus), config);
    // The HTTP endpoint scrapes the same counters the METRICS verb reads.
    let metrics = match &args.metrics_addr {
        Some(addr) => Some(server.serve_metrics(addr)?),
        None => None,
    };
    let handle = serve_tcp(server, &args.addr)?;
    println!(
        "xsact-serve: {} documents, {} shards (effective {}), queue {}, top {}{}",
        corpus.len(),
        corpus.shards(),
        corpus.effective_shards(),
        args.queue,
        args.top,
        match args.budget {
            Some(b) => format!(", budget {b}"),
            None => String::new(),
        }
    );
    match args.cache_entries {
        0 => println!("result-page cache disabled"),
        entries => println!("result-page cache: {} entries, {} bytes", entries, args.cache_bytes),
    }
    if let Some(metrics) = &metrics {
        println!("metrics on http://{}/metrics", metrics.addr());
    }
    println!("listening on {}", handle.addr());
    std::io::stdout().flush()?;
    let stats = handle.wait();
    drop(metrics); // stop the scrape endpoint before reporting
    let executor = ExecutorStats {
        postings_scanned: stats.postings_scanned,
        gallop_probes: stats.gallop_probes,
        candidates_pruned: stats.candidates_pruned,
    };
    Ok(format!("shutdown complete\n{stats}\n{}", explain_line(executor)))
}

/// The `client` subcommand: read request lines from stdin, send each to
/// the server, and print every response body (the lone `.` terminator is
/// consumed, not printed — output is exactly what the server said).
/// With `--retry-overloaded <n>`, a request answered `ERR OVERLOADED` is
/// resent up to `n` times under exponential backoff before its (final)
/// response is printed.
pub fn run_client(args: &ClientArgs) -> Result<String, XsactError> {
    let stream = connect_with_retry(&args.addr, args.retry_ms)?;
    let mut writer = stream.try_clone()?;
    let mut responses = BufReader::new(stream).lines();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        // --repeat sends the same request N times (the warm/hit loop of a
        // cache experiment); each send prints its own response.
        for _ in 0..args.repeat.max(1) {
            let mut attempt = 0u32;
            loop {
                writer.write_all(format!("{request}\n").as_bytes())?;
                // Server closed the stream mid-response (shutdown race, or
                // a dropped connection) — nothing more to print.
                let Some(body) = read_response(&mut responses) else { return Ok(String::new()) };
                if attempt < args.retry_overloaded
                    && body.first().is_some_and(|l| l.starts_with("ERR OVERLOADED"))
                {
                    std::thread::sleep(overload_backoff(request, attempt));
                    attempt += 1;
                    continue;
                }
                for l in &body {
                    println!("{l}");
                }
                break;
            }
            if request == "QUIT" || request == "SHUTDOWN" {
                return Ok(String::new());
            }
        }
    }
    Ok(String::new())
}

/// Reads one response body (every line up to the lone `.` marker, which
/// is consumed); `None` when the server closed the stream mid-response.
fn read_response(
    responses: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Option<Vec<String>> {
    let mut body = Vec::new();
    loop {
        match responses.next() {
            Some(Ok(l)) if l == END_MARKER => return Some(body),
            Some(Ok(l)) => body.push(l),
            Some(Err(_)) | None => return None,
        }
    }
}

/// Backoff before overload-retry `attempt`: a doubling 25 ms base plus a
/// 0..16 ms jitter hashed ([`WordHasher`](xsact::xml::WordHasher)) from
/// the request text and the attempt number — concurrent clients
/// de-synchronise without an RNG, and reruns are bit-reproducible.
fn overload_backoff(request: &str, attempt: u32) -> Duration {
    let mut hasher = xsact::xml::WordHasher::new();
    hasher.write(request.as_bytes());
    hasher.write(&attempt.to_le_bytes());
    let jitter_ms = hasher.finish() % 16;
    Duration::from_millis(25u64.saturating_mul(1u64 << attempt.min(6)) + jitter_ms)
}

/// Retries the connect until it succeeds or `total_ms` elapses, so a
/// scripted client can be started in the same breath as the server.
fn connect_with_retry(addr: &str, total_ms: u64) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + Duration::from_millis(total_ms);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    fn args_for(dataset: &str, extra: &[&str]) -> Args {
        let mut argv = vec!["--dataset".to_string(), dataset.to_string()];
        argv.extend(extra.iter().map(|s| s.to_string()));
        match args::parse(argv.into_iter()).expect("valid args") {
            args::Command::Single(a) => a,
            other => panic!("expected single mode: {other:?}"),
        }
    }

    fn corpus_args_for(extra: &[&str]) -> CorpusArgs {
        let mut argv = vec!["corpus".to_string()];
        argv.extend(extra.iter().map(|s| s.to_string()));
        match args::parse(argv.into_iter()).expect("valid args") {
            args::Command::Corpus(c) => c,
            other => panic!("expected corpus mode: {other:?}"),
        }
    }

    /// A scratch directory wiped on drop, so test artefacts never leak.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!("xsact-cli-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        fn path(&self, file: &str) -> String {
            self.0.join(file).to_string_lossy().into_owned()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn figure1_demo_reports_dod_5() {
        let a = args_for("figure1", &["--bound", "7"]);
        let out = run(&a).expect("runs");
        assert!(out.contains("2 results"));
        assert!(out.contains("DoD = 5"));
        assert!(out.contains("TomTom Go 630 Portable GPS"));
    }

    #[test]
    fn stats_and_xml_flags() {
        let a = args_for("figure1", &["--stats", "--xml"]);
        let out = run(&a).expect("runs");
        assert!(out.contains("# of reviews: 11"));
        assert!(out.contains("<product>"));
    }

    #[test]
    fn movies_demo_runs() {
        let a = args_for("movies", &["--bound", "6", "--algorithm", "single-swap"]);
        let out = run(&a).expect("runs");
        assert!(out.contains("single-swap"));
        assert!(out.contains("DoD ="));
    }

    #[test]
    fn outdoor_demo_runs() {
        let a = args_for("outdoor", &[]);
        let out = run(&a).expect("runs");
        assert!(out.contains("results"));
    }

    #[test]
    fn reviews_demo_runs() {
        let a = args_for("reviews", &["--select", "1,2"]);
        let out = run(&a).expect("runs");
        assert!(out.contains("comparing 2 results"));
    }

    #[test]
    fn ranked_mode_shows_scores() {
        let a = args_for("figure1", &["--ranked"]);
        let out = run(&a).expect("runs");
        assert!(out.contains("(score "));
        assert!(out.contains("(ranked)"));
    }

    #[test]
    fn ranked_top_bounds_the_listing() {
        // The movies demo has many results; --top 3 must list exactly the
        // best three — the same three the unbounded ranking leads with.
        let full = run(&args_for("movies", &["--ranked"])).expect("full run");
        let bounded = run(&args_for("movies", &["--ranked", "--top", "3"])).expect("bounded run");
        assert!(bounded.contains("top 3 results (ranked)"), "{bounded}");
        assert!(!bounded.contains("[ 4]"), "only three entries listed:\n{bounded}");
        fn listing(s: &str, n: usize) -> Vec<&str> {
            s.lines().filter(|l| l.trim_start().starts_with('[')).take(n).collect()
        }
        assert_eq!(listing(&full, 3), listing(&bounded, 3), "same best three, same order");
    }

    #[test]
    fn top_without_ranked_overrides_the_default_selection() {
        let out = run(&args_for("movies", &["--top", "2"])).expect("runs");
        assert!(out.contains("comparing 2 results"), "{out}");
    }

    #[test]
    fn select_disables_the_bounded_top_listing() {
        // --select picks positions in the full list; --top must not bound
        // (or mislabel) the listing, and only one search may run.
        let a = args_for("movies", &["--ranked", "--top", "2", "--select", "1,3"]);
        let out = run(&a).expect("runs");
        assert!(!out.contains("top "), "full listing expected:\n{out}");
        assert!(out.contains("results (ranked)"), "{out}");
        assert!(out.contains("comparing 2 results"), "{out}");
    }

    #[test]
    fn ranked_top_zero_is_not_reported_as_no_results() {
        let out = run(&args_for("movies", &["--ranked", "--top", "0"])).expect("runs");
        assert!(out.contains("--top 0 leaves fewer"), "{out}");
        assert!(!out.contains("no results"), "{out}");
        // …but a query that truly matches nothing says so, even at --top 0.
        let none = run(&args_for("movies", &["--ranked", "--top", "0", "--query", "zeppelin"]))
            .expect("runs");
        assert!(none.contains("no results"), "{none}");
        assert!(!none.contains("--top 0 leaves fewer"), "{none}");
    }

    #[test]
    fn explain_prints_executor_counters() {
        let out = run(&args_for("figure1", &["--explain"])).expect("runs");
        assert!(out.contains("executor: "), "{out}");
        assert!(out.contains("postings scanned"), "{out}");
        // A zero-postings term short-circuits: all counters stay zero.
        let empty =
            run(&args_for("figure1", &["--query", "tomtom zeppelin", "--explain"])).expect("runs");
        assert!(
            empty.contains("executor: 0 postings scanned, 0 gallop probes, 0 candidates pruned"),
            "{empty}"
        );
    }

    #[test]
    fn trace_prints_a_per_stage_table_after_the_answer() {
        let out = run(&args_for("figure1", &["--trace"])).expect("runs");
        let (answer, trace) = out.split_once("\ntrace:\n").expect("trace section appended");
        assert!(answer.contains("DoD = 5"), "answer precedes the trace:\n{out}");
        for stage in ["stage", "parse", "plan", "slca-stream", "total"] {
            assert!(trace.contains(stage), "missing {stage} in trace:\n{trace}");
        }
        assert!(!run(&args_for("figure1", &[])).expect("runs").contains("\ntrace:\n"));
    }

    #[test]
    fn corpus_trace_shows_per_shard_spans() {
        let c = corpus_args_for(&["--docs", "3", "--movies", "30", "--shards", "2", "--trace"]);
        let out = run_corpus(&c).expect("corpus run");
        let (_, trace) = out.split_once("\ntrace:\n").expect("trace section appended");
        for stage in ["parse", "shard 0", "shard 1", "merge", "total"] {
            assert!(trace.contains(stage), "missing {stage} in trace:\n{trace}");
        }
    }

    #[test]
    fn jobs_demo_runs() {
        let a = args_for("jobs", &["--bound", "6"]);
        let out = run(&a).expect("runs");
        assert!(out.contains("results"));
    }

    #[test]
    fn bad_selection_is_a_typed_error() {
        let a = args_for("figure1", &["--select", "9"]);
        let err = run(&a).unwrap_err();
        assert!(matches!(err, XsactError::InvalidSelection { index: 9, available: 2 }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn unmatched_query_is_graceful() {
        let a = args_for("figure1", &["--query", "zeppelin"]);
        let out = run(&a).expect("runs");
        assert!(out.contains("0 results"));
        assert!(out.contains("nothing to compare"));
    }

    #[test]
    fn empty_query_is_a_typed_error() {
        let a = args_for("figure1", &["--query", "!!!"]);
        assert!(matches!(run(&a), Err(XsactError::EmptyQuery)));
    }

    #[test]
    fn a_65_term_query_runs() {
        let query = (0..65).map(|i| format!("t{i}")).collect::<Vec<_>>().join(" ");
        let out = run(&args_for("figure1", &["--query", &query])).expect("runs");
        assert!(out.contains("0 results"));
    }

    #[test]
    fn save_then_load_index_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let path = tmp.path("movies.xidx");
        let save = args_for("movies", &["--bound", "6", "--save-index", &path]);
        let saved_out = run(&save).expect("save run");
        assert!(saved_out.contains("index: saved to"));
        let load = args_for("movies", &["--bound", "6", "--load-index", &path]);
        let loaded_out = run(&load).expect("load run");
        assert!(loaded_out.contains("index: restored from"));
        // Same dataset + same index ⇒ identical results and table.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("index:"))
                // Timings differ run to run; drop the trailing stats line.
                .filter(|l| !l.contains("rounds"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&saved_out), strip(&loaded_out));
    }

    #[test]
    fn loading_an_index_of_another_dataset_is_rejected() {
        let tmp = TempDir::new("mismatch");
        let path = tmp.path("figure1.xidx");
        run(&args_for("figure1", &["--save-index", &path])).expect("save run");
        // The image holds the figure1 document, not jobs → typed I/O error.
        let err = run(&args_for("jobs", &["--load-index", &path])).unwrap_err();
        assert!(matches!(err, XsactError::Io(_)));
    }

    #[test]
    fn corpus_mode_reports_merged_ranking_and_table() {
        let c = corpus_args_for(&["--docs", "4", "--movies", "40", "--shards", "2"]);
        let out = run_corpus(&c).expect("corpus run");
        assert!(out.contains("corpus: 4 documents"));
        assert!(out.contains("2 shards"));
        assert!(out.contains("@movies-0"), "hits tagged with document names:\n{out}");
        assert!(out.contains("DoD = "));
    }

    #[test]
    fn corpus_mode_ingests_directories_with_index_cache() {
        let tmp = TempDir::new("corpusdir");
        for (name, kind) in [("east", "gps"), ("west", "gps navigation")] {
            std::fs::write(
                std::path::Path::new(&tmp.path(&format!("{name}.xml"))),
                format!(
                    "<shop><product><name>{name} unit</name><kind>{kind}</kind></product></shop>"
                ),
            )
            .unwrap();
        }
        let cache = tmp.path("index-cache");
        let flags = ["--dir", &tmp.path(""), "--query", "gps", "--top", "2", "--index-dir", &cache];
        let cold: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        let cold_args = corpus_args_for(&cold.iter().map(String::as_str).collect::<Vec<_>>());
        let first = run_corpus(&cold_args).expect("cold corpus run");
        assert!(first.contains("corpus: 2 documents"));
        assert!(first.contains("@east") && first.contains("@west"));
        // The cache now holds one .xidx per document; a warm run loads them
        // (a corrupted cache would fall back to rebuilding, not fail).
        assert!(std::path::Path::new(&cache).join("east.xidx").exists());
        let second = run_corpus(&cold_args).expect("warm corpus run");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("ingested") && !l.contains(" in "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&first), strip(&second));
    }

    #[test]
    fn corpus_mode_surfaces_typed_errors() {
        let tmp = TempDir::new("emptydir");
        let dir = tmp.path("");
        let c = corpus_args_for(&["--dir", &dir]);
        assert!(matches!(run_corpus(&c), Err(XsactError::EmptyCorpus)));
        let c = corpus_args_for(&["--docs", "2", "--movies", "20", "--query", "!!!"]);
        assert!(matches!(run_corpus(&c), Err(XsactError::EmptyQuery)));
        // An index cache without a directory corpus would never be read.
        let c = corpus_args_for(&["--docs", "2", "--index-dir", &tmp.path("cache")]);
        assert!(matches!(run_corpus(&c), Err(XsactError::InvalidConfig(_))));
    }

    #[test]
    fn a_zero_bound_is_a_typed_error_in_both_modes() {
        for err in [
            run(&args_for("figure1", &["--bound", "0"])).unwrap_err(),
            run_corpus(&corpus_args_for(&["--docs", "2", "--movies", "20", "--bound", "0"]))
                .unwrap_err(),
        ] {
            assert!(matches!(err, XsactError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("size bound must be at least 1"), "{err}");
        }
    }

    #[test]
    fn serve_refuses_a_top_past_the_protocol_limit_before_booting() {
        let argv = ["serve", "--top", "1001", "--addr", "127.0.0.1:0"];
        let args::Command::Serve(s) = args::parse(argv.iter().map(|s| s.to_string())).unwrap()
        else {
            panic!("expected serve mode");
        };
        let err = run_serve(&s).unwrap_err();
        assert!(matches!(err, XsactError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("--top 1001 exceeds the protocol's limit of 1000"));
    }

    #[test]
    fn corpus_mode_explain_prints_aggregate_counters() {
        let c = corpus_args_for(&["--docs", "2", "--movies", "30", "--explain"]);
        let out = run_corpus(&c).expect("corpus run");
        assert!(out.contains("executor: "), "{out}");
        assert!(!out.contains("executor: 0 postings scanned"), "work must be counted:\n{out}");
    }

    #[test]
    fn corpus_mode_top_below_two_keeps_the_ranking_output() {
        let c = corpus_args_for(&["--docs", "2", "--movies", "30", "--top", "1"]);
        let out = run_corpus(&c).expect("a small --top is not an error");
        assert!(out.contains("results from"), "ranking still printed:\n{out}");
        assert!(out.contains("--top 1 leaves fewer"), "friendly note expected:\n{out}");
        assert!(!out.contains("DoD ="), "no comparison possible");
    }
}
