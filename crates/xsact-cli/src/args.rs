//! Command-line argument parsing (hand-rolled; the workspace stays
//! dependency-light).

use std::fmt;
use xsact_core::Algorithm;
use xsact_index::ResultSemantics;

/// Which dataset to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The paper's Figure 1 worked example.
    Figure1,
    /// Synthetic Product Reviews (buzzillions.com substitute).
    Reviews,
    /// Synthetic Outdoor Retailer (REI.com substitute).
    Outdoor,
    /// Synthetic IMDB-like movies.
    Movies,
    /// Synthetic job board (employee hiring domain).
    Jobs,
}

impl Dataset {
    fn parse(s: &str) -> Result<Self, ArgError> {
        match s {
            "figure1" | "fig1" | "paper" => Ok(Dataset::Figure1),
            "reviews" | "products" => Ok(Dataset::Reviews),
            "outdoor" | "rei" => Ok(Dataset::Outdoor),
            "movies" | "imdb" => Ok(Dataset::Movies),
            "jobs" | "hiring" => Ok(Dataset::Jobs),
            other => Err(ArgError(format!(
                "unknown dataset {other:?}; use figure1 | reviews | outdoor | movies | jobs"
            ))),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset to load.
    pub dataset: Dataset,
    /// Keyword query.
    pub query: String,
    /// Comparison table size bound `L`.
    pub bound: usize,
    /// Differentiability threshold `x` in percent.
    pub threshold: f64,
    /// DFS generation algorithm.
    pub algorithm: Algorithm,
    /// 1-based result positions to compare (empty = first four).
    pub select: Vec<usize>,
    /// Generator seed for the synthetic datasets.
    pub seed: u64,
    /// Print each selected result's statistics panel.
    pub stats: bool,
    /// Print the full XML of each selected result.
    pub show_xml: bool,
    /// LCA semantics used by the search engine.
    pub semantics: ResultSemantics,
    /// Order the result list by relevance instead of document order.
    pub ranked: bool,
    /// Bounded top-k: in ranked mode, list and compare only the best `k`
    /// results via the streaming executor. `None` keeps the classic
    /// full-listing behaviour (compare the first four).
    pub top: Option<usize>,
    /// Print the executor's counters (postings scanned, gallop probes,
    /// candidates pruned) after the run.
    pub explain: bool,
    /// Print a per-stage trace table (parse, plan, slca-stream, rank) of
    /// the query after the run. Purely observational.
    pub trace: bool,
    /// Serialise the inverted index to this path after the run.
    pub save_index: Option<String>,
    /// Restore the inverted index from this path instead of rebuilding it
    /// (fingerprint-checked against the dataset).
    pub load_index: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            dataset: Dataset::Figure1,
            query: String::new(),
            bound: 8,
            threshold: 10.0,
            algorithm: Algorithm::MultiSwap,
            select: Vec::new(),
            seed: 42,
            stats: false,
            show_xml: false,
            semantics: ResultSemantics::Slca,
            ranked: false,
            top: None,
            explain: false,
            trace: false,
            save_index: None,
            load_index: None,
        }
    }
}

/// Arguments of the `corpus` subcommand: query a whole directory (or a
/// synthetic fleet) of documents through the sharded corpus engine.
#[derive(Debug, Clone)]
pub struct CorpusArgs {
    /// Directory of `*.xml` documents to ingest. When absent, a synthetic
    /// movie fleet of `docs` documents is generated instead.
    pub dir: Option<String>,
    /// Synthetic fleet size (used when `dir` is absent).
    pub docs: usize,
    /// Movies per synthetic document.
    pub movies: usize,
    /// Generator seed for the synthetic fleet.
    pub seed: u64,
    /// Keyword query.
    pub query: String,
    /// Shard count; 0 = the machine's available parallelism.
    pub shards: usize,
    /// How many merged results enter the comparison.
    pub top: usize,
    /// Comparison table size bound `L`.
    pub bound: usize,
    /// Differentiability threshold `x` in percent.
    pub threshold: f64,
    /// DFS generation algorithm.
    pub algorithm: Algorithm,
    /// Per-document index cache directory: indexes found here skip the
    /// indexing scan, missing ones are built and saved. Only meaningful
    /// with `dir` (a synthetic fleet never reloads a cache).
    pub index_dir: Option<String>,
    /// Print the corpus-wide executor counters after the run.
    pub explain: bool,
    /// Print a per-stage trace table (parse, per-shard execution, merge)
    /// of the corpus query after the run. Purely observational.
    pub trace: bool,
}

impl Default for CorpusArgs {
    fn default() -> Self {
        CorpusArgs {
            dir: None,
            docs: 8,
            movies: 120,
            seed: 42,
            query: "drama family".to_owned(),
            shards: 0,
            top: 4,
            bound: 8,
            threshold: 10.0,
            algorithm: Algorithm::MultiSwap,
            index_dir: None,
            explain: false,
            trace: false,
        }
    }
}

/// Arguments of the `serve` subcommand: run the long-lived corpus server
/// with its TCP line-protocol front end.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Directory of `*.xml` documents to serve. When absent, a synthetic
    /// movie fleet of `docs` documents is generated instead.
    pub dir: Option<String>,
    /// Synthetic fleet size (used when `dir` is absent).
    pub docs: usize,
    /// Movies per synthetic document.
    pub movies: usize,
    /// Generator seed for the synthetic fleet.
    pub seed: u64,
    /// Shard count; 0 = the machine's available parallelism.
    pub shards: usize,
    /// Per-document index cache directory (only meaningful with `dir`).
    pub index_dir: Option<String>,
    /// Address to listen on; port 0 binds an ephemeral port (printed).
    pub addr: String,
    /// Submission-queue capacity; 0 rejects everything (test servers).
    pub queue: usize,
    /// Largest batch one dispatch round may form.
    pub max_batch: usize,
    /// Default per-session top-k (sessions change it with `TOP`).
    pub top: usize,
    /// Per-session executor-work budget in posting entries scanned.
    pub budget: Option<u64>,
    /// Address for the plain-HTTP `GET /metrics` endpoint; `None` = no
    /// HTTP exposition (the `METRICS` verb still works).
    pub metrics_addr: Option<String>,
    /// End-to-end latency threshold in milliseconds above which a served
    /// query is logged to stderr; `None` disables the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Per-query deadline in milliseconds (queue wait + execute); a query
    /// past it gets `ERR DEADLINE_EXCEEDED`. `None` = unlimited.
    pub deadline_ms: Option<u64>,
    /// Entry bound of the result-page cache; 0 disables caching.
    pub cache_entries: usize,
    /// Approximate byte bound of the result-page cache (0 = entry bound
    /// only).
    pub cache_bytes: usize,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            dir: None,
            docs: 8,
            movies: 120,
            seed: 42,
            shards: 0,
            index_dir: None,
            addr: "127.0.0.1:4141".to_owned(),
            queue: 64,
            max_batch: 16,
            top: 4,
            budget: None,
            metrics_addr: None,
            slow_query_ms: None,
            deadline_ms: None,
            cache_entries: 1024,
            cache_bytes: 4 << 20,
        }
    }
}

/// Arguments of the `client` subcommand: a scriptable line-protocol
/// client (reads requests from stdin, prints each response body).
#[derive(Debug, Clone)]
pub struct ClientArgs {
    /// Server address to connect to.
    pub addr: String,
    /// Total time in milliseconds to keep retrying the connect (covers
    /// the race between starting the server and the first client).
    pub retry_ms: u64,
    /// How many times to retry a request answered `ERR OVERLOADED`
    /// (exponential backoff with deterministic jitter); 0 = print the
    /// error like any other.
    pub retry_overloaded: u32,
    /// Send each stdin request this many times, printing every response
    /// (cache warm/hit experiments); clamped to at least 1.
    pub repeat: u32,
}

impl Default for ClientArgs {
    fn default() -> Self {
        ClientArgs {
            addr: "127.0.0.1:4141".to_owned(),
            retry_ms: 2000,
            retry_overloaded: 0,
            repeat: 1,
        }
    }
}

/// A parsed invocation: the classic single-document demo, the sharded
/// corpus mode, or the serving runtime's two ends.
#[derive(Debug, Clone)]
pub enum Command {
    /// `xsact [OPTIONS]` — one dataset, one workbench.
    Single(Args),
    /// `xsact corpus [OPTIONS]` — many documents, parallel fan-out.
    Corpus(CorpusArgs),
    /// `xsact serve [OPTIONS]` — long-lived corpus server over TCP.
    Serve(ServeArgs),
    /// `xsact client [OPTIONS]` — line-protocol client (stdin → server).
    Client(ClientArgs),
}

/// A human-readable argument error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Usage text printed on `--help` or errors.
pub const USAGE: &str = "\
xsact — compare structured search results (VLDB 2010 demo reproduction)

USAGE:
    xsact-demo [OPTIONS]
    xsact-demo corpus [CORPUS OPTIONS]

OPTIONS:
    --dataset <name>     figure1 | reviews | outdoor | movies | jobs [figure1]
    --query <text>       keyword query (default: the dataset's demo query)
    --bound <L>          max features per DFS                   [8]
    --threshold <x>      differentiability threshold in percent [10]
    --algorithm <name>   snippet | greedy | single-swap | multi-swap [multi-swap]
    --select <list>      1-based result numbers, e.g. 1,3       [first 4]
    --seed <n>           generator seed                         [42]
    --semantics <s>      slca | elca result semantics           [slca]
    --ranked             order results by relevance (TF-IDF)
    --top <k>            compare the first k results instead of 4; with
                         --ranked the listing itself is bounded to the
                         best k (streaming executor)
    --explain            print executor counters (postings scanned,
                         gallop probes, candidates pruned)
    --trace              print a per-stage latency table for the query
                         (parse, plan, slca-stream, rank)
    --stats              print per-result statistics panels
    --xml                print each selected result's XML
    --save-index <path>  serialise the inverted index after the run
    --load-index <path>  restore the index instead of rebuilding it
    --help               this text

CORPUS OPTIONS (sharded multi-document engine):
    --dir <path>         ingest every *.xml in <path> (sorted order);
                         the synthetic-fleet flags below are then unused
    --docs <n>           synthetic movie fleet size when no --dir  [8]
    --movies <n>         movies per synthetic document (no --dir) [120]
    --seed <n>           fleet generator seed (no --dir)          [42]
    --query <text>       keyword query                 [drama family]
    --shards <n>         shard count (0 = machine parallelism)    [0]
    --top <k>            merged results entering the comparison   [4]
    --bound <L>          max features per DFS                     [8]
    --threshold <x>      differentiability threshold in percent   [10]
    --algorithm <name>   snippet | greedy | single-swap | multi-swap [multi-swap]
    --index-dir <path>   per-document index cache for --dir corpora
                         (skip shard cold starts on reload)
    --explain            print corpus-wide executor counters
    --trace              print a per-stage latency table for the query
                         (parse, per-shard execution, merge)

SERVE OPTIONS (long-lived corpus server, TCP line protocol):
    --dir/--docs/--movies/--seed/--shards/--index-dir
                         corpus source, as in corpus mode
    --addr <host:port>   listen address (port 0 = ephemeral) [127.0.0.1:4141]
    --queue <n>          submission-queue capacity; 0 rejects all   [64]
    --max-batch <n>      largest batch one dispatch round forms     [16]
    --top <k>            default per-session top-k (TOP verb resets) [4]
    --budget <n>         per-session budget in posting entries scanned
                         (a session past it gets ERR BUDGET_EXCEEDED)
    --metrics-addr <a>   also serve plain-HTTP GET /metrics on <a>
                         (Prometheus text exposition; off by default)
    --slow-query-ms <n>  log queries slower than <n> ms end-to-end
                         to stderr (off by default)
    --deadline-ms <n>    per-query deadline (queue wait + execute); a
                         query past it gets ERR DEADLINE_EXCEEDED
    --cache-entries <n>  result-page cache entry bound; 0 disables the
                         cache (hits skip queue and shard pool)   [1024]
    --cache-bytes <n>    result-page cache byte bound; 0 = entry bound
                         only                                  [4194304]
    env XSACT_FAULTS     arm deterministic fault-injection sites (chaos
                         testing; see the fault module docs)
    protocol verbs: QUERY <text> | TOP <k> | STATS | METRICS | QUIT |
    SHUTDOWN; every response ends with a lone '.' line

CLIENT OPTIONS (scriptable line-protocol client; requests from stdin):
    --addr <host:port>   server address                 [127.0.0.1:4141]
    --retry-ms <n>       connect retry window in milliseconds     [2000]
    --retry-overloaded <n>  retry a request answered ERR OVERLOADED up
                         to <n> times (exponential backoff, deterministic
                         jitter)                                     [0]
    --repeat <n>         send each stdin request <n> times, printing
                         every response (cache experiments)          [1]
";

fn parse_algorithm(s: &str) -> Result<Algorithm, ArgError> {
    match s {
        "snippet" => Ok(Algorithm::Snippet),
        "greedy" => Ok(Algorithm::Greedy),
        "single-swap" | "single" => Ok(Algorithm::SingleSwap),
        "multi-swap" | "multi" => Ok(Algorithm::MultiSwap),
        other => Err(ArgError(format!(
            "unknown algorithm {other:?}; use snippet | greedy | single-swap | multi-swap"
        ))),
    }
}

/// Parses `argv[1..]`: a leading `corpus` word selects the corpus
/// subcommand, anything else is the classic single-document demo.
pub fn parse<I>(argv: I) -> Result<Command, ArgError>
where
    I: Iterator<Item = String>,
{
    let mut argv = argv.peekable();
    match argv.peek().map(String::as_str) {
        Some("corpus") => {
            argv.next();
            parse_corpus(argv).map(Command::Corpus)
        }
        Some("serve") => {
            argv.next();
            parse_serve(argv).map(Command::Serve)
        }
        Some("client") => {
            argv.next();
            parse_client(argv).map(Command::Client)
        }
        _ => parse_single(argv).map(Command::Single),
    }
}

fn parse_serve<I>(mut argv: I) -> Result<ServeArgs, ArgError>
where
    I: Iterator<Item = String>,
{
    let mut args = ServeArgs::default();
    let int = |name: &str, v: String| {
        v.parse::<usize>().map_err(|_| ArgError(format!("{name} expects an integer")))
    };
    while let Some(flag) = argv.next() {
        let mut value =
            |name: &str| argv.next().ok_or_else(|| ArgError(format!("{name} requires a value")));
        match flag.as_str() {
            "--dir" => args.dir = Some(value("--dir")?),
            "--docs" => args.docs = int("--docs", value("--docs")?)?,
            "--movies" => args.movies = int("--movies", value("--movies")?)?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| ArgError("--seed expects an integer".into()))?;
            }
            "--shards" => args.shards = int("--shards", value("--shards")?)?,
            "--index-dir" => args.index_dir = Some(value("--index-dir")?),
            "--addr" => args.addr = value("--addr")?,
            "--queue" => args.queue = int("--queue", value("--queue")?)?,
            "--max-batch" => args.max_batch = int("--max-batch", value("--max-batch")?)?,
            "--top" => args.top = int("--top", value("--top")?)?,
            "--budget" => {
                args.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|_| ArgError("--budget expects an integer".into()))?,
                );
            }
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--slow-query-ms" => {
                args.slow_query_ms = Some(
                    value("--slow-query-ms")?
                        .parse()
                        .map_err(|_| ArgError("--slow-query-ms expects an integer".into()))?,
                );
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|_| ArgError("--deadline-ms expects an integer".into()))?,
                );
            }
            "--cache-entries" => {
                args.cache_entries = int("--cache-entries", value("--cache-entries")?)?;
            }
            "--cache-bytes" => args.cache_bytes = int("--cache-bytes", value("--cache-bytes")?)?,
            "--help" | "-h" => return Err(ArgError(USAGE.to_owned())),
            other => return Err(ArgError(format!("unknown serve flag {other:?}\n\n{USAGE}"))),
        }
    }
    Ok(args)
}

fn parse_client<I>(mut argv: I) -> Result<ClientArgs, ArgError>
where
    I: Iterator<Item = String>,
{
    let mut args = ClientArgs::default();
    while let Some(flag) = argv.next() {
        let mut value =
            |name: &str| argv.next().ok_or_else(|| ArgError(format!("{name} requires a value")));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--retry-ms" => {
                args.retry_ms = value("--retry-ms")?
                    .parse()
                    .map_err(|_| ArgError("--retry-ms expects an integer".into()))?;
            }
            "--retry-overloaded" => {
                args.retry_overloaded = value("--retry-overloaded")?
                    .parse()
                    .map_err(|_| ArgError("--retry-overloaded expects an integer".into()))?;
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse::<u32>()
                    .map_err(|_| ArgError("--repeat expects an integer".into()))?
                    .max(1);
            }
            "--help" | "-h" => return Err(ArgError(USAGE.to_owned())),
            other => return Err(ArgError(format!("unknown client flag {other:?}\n\n{USAGE}"))),
        }
    }
    Ok(args)
}

fn parse_corpus<I>(mut argv: I) -> Result<CorpusArgs, ArgError>
where
    I: Iterator<Item = String>,
{
    let mut args = CorpusArgs::default();
    let int = |name: &str, v: String| {
        v.parse::<usize>().map_err(|_| ArgError(format!("{name} expects an integer")))
    };
    while let Some(flag) = argv.next() {
        let mut value =
            |name: &str| argv.next().ok_or_else(|| ArgError(format!("{name} requires a value")));
        match flag.as_str() {
            "--dir" => args.dir = Some(value("--dir")?),
            "--docs" => args.docs = int("--docs", value("--docs")?)?,
            "--movies" => args.movies = int("--movies", value("--movies")?)?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| ArgError("--seed expects an integer".into()))?;
            }
            "--query" => args.query = value("--query")?,
            "--shards" => args.shards = int("--shards", value("--shards")?)?,
            "--top" => args.top = int("--top", value("--top")?)?,
            "--bound" => args.bound = int("--bound", value("--bound")?)?,
            "--threshold" => {
                args.threshold = value("--threshold")?
                    .parse()
                    .map_err(|_| ArgError("--threshold expects a number".into()))?;
            }
            "--algorithm" => args.algorithm = parse_algorithm(&value("--algorithm")?)?,
            "--index-dir" => args.index_dir = Some(value("--index-dir")?),
            "--explain" => args.explain = true,
            "--trace" => args.trace = true,
            "--help" | "-h" => return Err(ArgError(USAGE.to_owned())),
            other => return Err(ArgError(format!("unknown corpus flag {other:?}\n\n{USAGE}"))),
        }
    }
    Ok(args)
}

fn parse_single<I>(mut argv: I) -> Result<Args, ArgError>
where
    I: Iterator<Item = String>,
{
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value =
            |name: &str| argv.next().ok_or_else(|| ArgError(format!("{name} requires a value")));
        match flag.as_str() {
            "--dataset" => args.dataset = Dataset::parse(&value("--dataset")?)?,
            "--query" => args.query = value("--query")?,
            "--bound" => {
                args.bound = value("--bound")?
                    .parse()
                    .map_err(|_| ArgError("--bound expects an integer".into()))?;
            }
            "--threshold" => {
                args.threshold = value("--threshold")?
                    .parse()
                    .map_err(|_| ArgError("--threshold expects a number".into()))?;
            }
            "--algorithm" => args.algorithm = parse_algorithm(&value("--algorithm")?)?,
            "--select" => {
                args.select = value("--select")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| ArgError(format!("bad result number {s:?}")))
                    })
                    .collect::<Result<_, _>>()?;
                if args.select.contains(&0) {
                    return Err(ArgError("--select positions are 1-based".into()));
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| ArgError("--seed expects an integer".into()))?;
            }
            "--semantics" => {
                args.semantics = match value("--semantics")?.as_str() {
                    "slca" => ResultSemantics::Slca,
                    "elca" => ResultSemantics::Elca,
                    other => {
                        return Err(ArgError(format!(
                            "unknown semantics {other:?}; use slca | elca"
                        )))
                    }
                };
            }
            "--ranked" => args.ranked = true,
            "--top" => {
                args.top = Some(
                    value("--top")?
                        .parse()
                        .map_err(|_| ArgError("--top expects an integer".into()))?,
                );
            }
            "--explain" => args.explain = true,
            "--trace" => args.trace = true,
            "--stats" => args.stats = true,
            "--xml" => args.show_xml = true,
            "--save-index" => args.save_index = Some(value("--save-index")?),
            "--load-index" => args.load_index = Some(value("--load-index")?),
            "--help" | "-h" => return Err(ArgError(USAGE.to_owned())),
            other => return Err(ArgError(format!("unknown flag {other:?}\n\n{USAGE}"))),
        }
    }
    if args.query.is_empty() {
        args.query = default_query(args.dataset).to_owned();
    }
    Ok(args)
}

/// The demo query shown for each dataset.
pub fn default_query(dataset: Dataset) -> &'static str {
    match dataset {
        Dataset::Figure1 | Dataset::Reviews => "TomTom GPS",
        Dataset::Outdoor => "men jackets",
        Dataset::Movies => "drama family",
        Dataset::Jobs => "senior engineer",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Args {
        match parse(args.iter().map(|s| s.to_string())).expect("parses") {
            Command::Single(a) => a,
            other => panic!("expected single mode, got {other:?}"),
        }
    }

    fn parse_corpus_ok(args: &[&str]) -> CorpusArgs {
        match parse(args.iter().map(|s| s.to_string())).expect("parses") {
            Command::Corpus(c) => c,
            other => panic!("expected corpus mode, got {other:?}"),
        }
    }

    #[test]
    fn defaults() {
        let a = parse_ok(&[]);
        assert_eq!(a.dataset, Dataset::Figure1);
        assert_eq!(a.query, "TomTom GPS");
        assert_eq!(a.bound, 8);
        assert_eq!(a.algorithm, Algorithm::MultiSwap);
    }

    #[test]
    fn full_flag_set() {
        let a = parse_ok(&[
            "--dataset",
            "movies",
            "--query",
            "war soldier",
            "--bound",
            "5",
            "--threshold",
            "25",
            "--algorithm",
            "single-swap",
            "--select",
            "1,3,4",
            "--seed",
            "9",
            "--stats",
            "--xml",
        ]);
        assert_eq!(a.dataset, Dataset::Movies);
        assert_eq!(a.query, "war soldier");
        assert_eq!(a.bound, 5);
        assert!((a.threshold - 25.0).abs() < 1e-12);
        assert_eq!(a.algorithm, Algorithm::SingleSwap);
        assert_eq!(a.select, vec![1, 3, 4]);
        assert_eq!(a.seed, 9);
        assert!(a.stats && a.show_xml);
    }

    #[test]
    fn dataset_aliases() {
        assert_eq!(parse_ok(&["--dataset", "rei"]).dataset, Dataset::Outdoor);
        assert_eq!(parse_ok(&["--dataset", "imdb"]).dataset, Dataset::Movies);
        assert_eq!(parse_ok(&["--dataset", "paper"]).dataset, Dataset::Figure1);
        assert_eq!(parse_ok(&["--dataset", "hiring"]).dataset, Dataset::Jobs);
    }

    #[test]
    fn default_queries_per_dataset() {
        assert_eq!(parse_ok(&["--dataset", "outdoor"]).query, "men jackets");
        assert_eq!(parse_ok(&["--dataset", "movies"]).query, "drama family");
    }

    #[test]
    fn semantics_and_ranked_flags() {
        let a = parse_ok(&["--semantics", "elca", "--ranked"]);
        assert_eq!(a.semantics, ResultSemantics::Elca);
        assert!(a.ranked);
        assert_eq!(parse_ok(&[]).semantics, ResultSemantics::Slca);
    }

    #[test]
    fn top_and_explain_flags() {
        let a = parse_ok(&["--ranked", "--top", "5", "--explain"]);
        assert_eq!(a.top, Some(5));
        assert!(a.explain);
        let d = parse_ok(&[]);
        assert_eq!(d.top, None);
        assert!(!d.explain);
        let c = parse_corpus_ok(&["corpus", "--explain"]);
        assert!(c.explain);
        let err = |args: &[&str]| parse(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--top", "x"]).0.contains("integer"));
    }

    #[test]
    fn trace_flag_in_single_and_corpus_modes() {
        assert!(parse_ok(&["--trace"]).trace);
        assert!(!parse_ok(&[]).trace);
        assert!(parse_corpus_ok(&["corpus", "--trace"]).trace);
        assert!(!parse_corpus_ok(&["corpus"]).trace);
    }

    #[test]
    fn errors() {
        let err = |args: &[&str]| parse(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--dataset", "bogus"]).0.contains("unknown dataset"));
        assert!(err(&["--bound", "x"]).0.contains("integer"));
        assert!(err(&["--bound"]).0.contains("requires a value"));
        assert!(err(&["--algorithm", "dp"]).0.contains("unknown algorithm"));
        assert!(err(&["--select", "0"]).0.contains("1-based"));
        assert!(err(&["--select", "1,a"]).0.contains("bad result number"));
        assert!(err(&["--semantics", "xlca"]).0.contains("unknown semantics"));
        assert!(err(&["--frobnicate"]).0.contains("unknown flag"));
        assert!(err(&["--help"]).0.contains("USAGE"));
    }

    #[test]
    fn index_persistence_flags() {
        let a = parse_ok(&["--save-index", "/tmp/a.xidx", "--load-index", "/tmp/b.xidx"]);
        assert_eq!(a.save_index.as_deref(), Some("/tmp/a.xidx"));
        assert_eq!(a.load_index.as_deref(), Some("/tmp/b.xidx"));
        assert_eq!(parse_ok(&[]).save_index, None);
    }

    #[test]
    fn corpus_subcommand_defaults() {
        let c = parse_corpus_ok(&["corpus"]);
        assert_eq!(c.dir, None);
        assert_eq!(c.docs, 8);
        assert_eq!(c.movies, 120);
        assert_eq!(c.query, "drama family");
        assert_eq!(c.shards, 0);
        assert_eq!(c.top, 4);
        assert_eq!(c.algorithm, Algorithm::MultiSwap);
    }

    #[test]
    fn corpus_subcommand_full_flag_set() {
        let c = parse_corpus_ok(&[
            "corpus",
            "--dir",
            "data/xml",
            "--docs",
            "3",
            "--movies",
            "50",
            "--seed",
            "7",
            "--query",
            "war soldier",
            "--shards",
            "4",
            "--top",
            "6",
            "--bound",
            "5",
            "--threshold",
            "20",
            "--algorithm",
            "greedy",
            "--index-dir",
            "cache",
        ]);
        assert_eq!(c.dir.as_deref(), Some("data/xml"));
        assert_eq!((c.docs, c.movies, c.seed), (3, 50, 7));
        assert_eq!(c.query, "war soldier");
        assert_eq!((c.shards, c.top, c.bound), (4, 6, 5));
        assert!((c.threshold - 20.0).abs() < 1e-12);
        assert_eq!(c.algorithm, Algorithm::Greedy);
        assert_eq!(c.index_dir.as_deref(), Some("cache"));
    }

    #[test]
    fn corpus_subcommand_errors() {
        let err = |args: &[&str]| parse(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["corpus", "--shards", "x"]).0.contains("integer"));
        assert!(err(&["corpus", "--select", "1"]).0.contains("unknown corpus flag"));
        assert!(err(&["corpus", "--help"]).0.contains("CORPUS OPTIONS"));
    }

    fn parse_serve_ok(args: &[&str]) -> ServeArgs {
        match parse(args.iter().map(|s| s.to_string())).expect("parses") {
            Command::Serve(s) => s,
            other => panic!("expected serve mode, got {other:?}"),
        }
    }

    #[test]
    fn serve_subcommand_defaults() {
        let s = parse_serve_ok(&["serve"]);
        assert_eq!(s.addr, "127.0.0.1:4141");
        assert_eq!((s.queue, s.max_batch, s.top), (64, 16, 4));
        assert_eq!(s.budget, None);
        assert_eq!((s.docs, s.movies, s.shards), (8, 120, 0));
        assert_eq!((s.cache_entries, s.cache_bytes), (1024, 4 << 20));
    }

    #[test]
    fn serve_cache_flags() {
        let s = parse_serve_ok(&["serve", "--cache-entries", "0"]);
        assert_eq!(s.cache_entries, 0, "--cache-entries 0 disables the cache");
        let s = parse_serve_ok(&["serve", "--cache-entries", "2", "--cache-bytes", "4096"]);
        assert_eq!((s.cache_entries, s.cache_bytes), (2, 4096));
        let err = |args: &[&str]| parse(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["serve", "--cache-entries", "x"]).0.contains("integer"));
        assert!(err(&["serve", "--cache-bytes"]).0.contains("requires a value"));
    }

    #[test]
    fn serve_subcommand_full_flag_set() {
        let s = parse_serve_ok(&[
            "serve",
            "--dir",
            "data/xml",
            "--shards",
            "2",
            "--index-dir",
            "cache",
            "--addr",
            "127.0.0.1:0",
            "--queue",
            "8",
            "--max-batch",
            "4",
            "--top",
            "3",
            "--budget",
            "100",
            "--deadline-ms",
            "750",
        ]);
        assert_eq!(s.dir.as_deref(), Some("data/xml"));
        assert_eq!(s.shards, 2);
        assert_eq!(s.index_dir.as_deref(), Some("cache"));
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!((s.queue, s.max_batch, s.top), (8, 4, 3));
        assert_eq!(s.budget, Some(100));
        assert_eq!(s.deadline_ms, Some(750));
    }

    #[test]
    fn serve_observability_flags() {
        let d = parse_serve_ok(&["serve"]);
        assert_eq!(d.metrics_addr, None);
        assert_eq!(d.slow_query_ms, None);
        let s =
            parse_serve_ok(&["serve", "--metrics-addr", "127.0.0.1:0", "--slow-query-ms", "250"]);
        assert_eq!(s.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(s.slow_query_ms, Some(250));
        let err = |args: &[&str]| parse(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["serve", "--slow-query-ms", "x"]).0.contains("integer"));
        assert!(err(&["serve", "--metrics-addr"]).0.contains("requires a value"));
    }

    #[test]
    fn client_subcommand_parses() {
        let c = match parse(["client"].iter().map(|s| s.to_string())).expect("parses") {
            Command::Client(c) => c,
            other => panic!("expected client mode, got {other:?}"),
        };
        assert_eq!(c.addr, "127.0.0.1:4141");
        assert_eq!(c.retry_ms, 2000);
        assert_eq!(c.retry_overloaded, 0);
        let c = match parse(
            ["client", "--addr", "127.0.0.1:9", "--retry-ms", "10", "--retry-overloaded", "3"]
                .iter()
                .map(|s| s.to_string()),
        )
        .expect("parses")
        {
            Command::Client(c) => c,
            other => panic!("expected client mode, got {other:?}"),
        };
        assert_eq!(c.addr, "127.0.0.1:9");
        assert_eq!(c.retry_ms, 10);
        assert_eq!(c.retry_overloaded, 3);
        assert_eq!(c.repeat, 1, "--repeat defaults to a single send");
    }

    #[test]
    fn client_repeat_flag() {
        let c = match parse(["client", "--repeat", "5"].iter().map(|s| s.to_string()))
            .expect("parses")
        {
            Command::Client(c) => c,
            other => panic!("expected client mode, got {other:?}"),
        };
        assert_eq!(c.repeat, 5);
        let c = match parse(["client", "--repeat", "0"].iter().map(|s| s.to_string()))
            .expect("parses")
        {
            Command::Client(c) => c,
            other => panic!("expected client mode, got {other:?}"),
        };
        assert_eq!(c.repeat, 1, "--repeat 0 is clamped to one send");
        let err = |args: &[&str]| parse(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["client", "--repeat", "x"]).0.contains("integer"));
    }

    #[test]
    fn serve_and_client_errors() {
        let err = |args: &[&str]| parse(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["serve", "--queue", "x"]).0.contains("integer"));
        assert!(err(&["serve", "--select", "1"]).0.contains("unknown serve flag"));
        assert!(err(&["serve", "--deadline-ms", "soon"]).0.contains("integer"));
        assert!(err(&["serve", "--help"]).0.contains("SERVE OPTIONS"));
        assert!(err(&["client", "--queue", "1"]).0.contains("unknown client flag"));
        assert!(err(&["client", "--retry-ms"]).0.contains("requires a value"));
        assert!(err(&["client", "--retry-overloaded", "x"]).0.contains("integer"));
    }
}
