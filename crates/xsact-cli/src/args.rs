//! Command-line arguments: one table of flags per subcommand.
//!
//! Each `command!` block below is that table. A row — field, kind (the
//! field's type), default, flag, value placeholder, help — is written once
//! and becomes the struct field `app.rs` reads, its `Default`, the arm the
//! parser takes, the line `--help` prints and the list the unknown-flag
//! error shows, so the five cannot drift.

use std::fmt;
use xsact_core::Algorithm;

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

/// A human-readable argument error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// The kind of a flag: how its value is read from the command line and how
/// its default reads in `--help`.
trait FlagValue: Sized {
    /// The value of `flag` from the argument after it (a switch gets `""`).
    fn parse(flag: &str, text: &str) -> Result<Self, ArgError>;

    /// The `[default]` `--help` prints; `None` for a flag that is off or
    /// unset unless given.
    fn show(&self) -> Option<String>;
}

macro_rules! numeric_flag_values {
    ($($ty:ty: $what:literal),*) => {$(
        impl FlagValue for $ty {
            fn parse(flag: &str, text: &str) -> Result<Self, ArgError> {
                text.parse().map_err(|_| ArgError(format!("{flag} expects {}", $what)))
            }

            fn show(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}

numeric_flag_values!(usize: "an integer", u64: "an integer", u32: "an integer", f64: "a number");

/// A switch: present or not, no value.
impl FlagValue for bool {
    fn parse(_: &str, _: &str) -> Result<Self, ArgError> {
        Ok(true)
    }

    fn show(&self) -> Option<String> {
        None
    }
}

impl FlagValue for String {
    fn parse(_: &str, text: &str) -> Result<Self, ArgError> {
        Ok(text.to_owned())
    }

    fn show(&self) -> Option<String> {
        (!self.is_empty()).then(|| self.clone())
    }
}

impl<T: FlagValue> FlagValue for Option<T> {
    fn parse(flag: &str, text: &str) -> Result<Self, ArgError> {
        T::parse(flag, text).map(Some)
    }

    fn show(&self) -> Option<String> {
        self.as_ref().and_then(T::show)
    }
}

/// 1-based result positions, comma-separated.
impl FlagValue for Vec<usize> {
    fn parse(flag: &str, text: &str) -> Result<Self, ArgError> {
        let positions = text
            .split(',')
            .map(|s| {
                s.trim().parse::<usize>().map_err(|_| ArgError(format!("bad result number {s:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if positions.contains(&0) {
            return Err(ArgError(format!("{flag} positions are 1-based")));
        }
        Ok(positions)
    }

    fn show(&self) -> Option<String> {
        None
    }
}

impl FlagValue for Dataset {
    fn parse(_: &str, text: &str) -> Result<Self, ArgError> {
        match text {
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

    fn show(&self) -> Option<String> {
        Some(format!("{self:?}").to_lowercase())
    }
}

impl FlagValue for Algorithm {
    fn parse(_: &str, text: &str) -> Result<Self, ArgError> {
        match text {
            "snippet" => Ok(Algorithm::Snippet),
            "greedy" => Ok(Algorithm::Greedy),
            "single-swap" | "single" => Ok(Algorithm::SingleSwap),
            "multi-swap" | "multi" => Ok(Algorithm::MultiSwap),
            other => Err(ArgError(format!(
                "unknown algorithm {other:?}; use snippet | greedy | single-swap | multi-swap"
            ))),
        }
    }

    fn show(&self) -> Option<String> {
        Some(self.name().to_owned())
    }
}

/// One row of a subcommand's flag table, as the parser and `--help` read it.
struct Flag<T> {
    /// The flag as typed, e.g. `--bound`.
    name: &'static str,
    /// Placeholder of its value in `--help`, e.g. `<L>`; empty for a switch,
    /// which takes none.
    value: &'static str,
    /// What `--help` says; a line break continues in the help column.
    help: &'static str,
    /// Stores the parsed value in the row's field.
    set: fn(&mut T, &str) -> Result<(), ArgError>,
    /// The row's field, as `--help` shows a default.
    show: fn(&T) -> Option<String>,
}

/// The arguments of one subcommand: its `Default` and its flag table.
trait Flags: Default + 'static {
    /// The word after `xsact` that selects the subcommand; empty for the
    /// single-document demo.
    const COMMAND: &'static str;
    /// One phrase on what the subcommand is, for its `--help` heading.
    const ABOUT: &'static str;
    /// The rows, in `--help` order.
    const FLAGS: &'static [Flag<Self>];
    /// Lines `--help` prints under the rows: what the subcommand reads
    /// besides flags.
    const NOTES: &'static str;
}

/// Declares a subcommand's argument struct from its flag table: per row
/// `field: kind = default, "--flag" "<value>", "help";`.
macro_rules! command {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $command:literal, $about:literal, notes $notes:literal {
            $($field:ident: $kind:ty = $default:expr, $flag:literal $value:literal, $help:literal;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            $(pub $field: $kind,)*
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $($field: $default,)* }
            }
        }

        impl Flags for $name {
            const COMMAND: &'static str = $command;
            const ABOUT: &'static str = $about;
            const NOTES: &'static str = $notes;
            const FLAGS: &'static [Flag<Self>] = &[$(Flag {
                name: $flag,
                value: $value,
                help: $help,
                set: |args, text| {
                    args.$field = FlagValue::parse($flag, text)?;
                    Ok(())
                },
                show: |args| args.$field.show(),
            },)*];
        }
    };
}

command! {
    /// `xsact [OPTIONS]`: one dataset, one workbench.
    pub struct Args: "", "single-document demo", notes "" {
        dataset: Dataset = Dataset::Figure1, "--dataset" "<name>",
            "figure1 | reviews | outdoor | movies | jobs";
        query: String = String::new(), "--query" "<text>",
            "keyword query (default: the dataset's demo query)";
        bound: usize = 8, "--bound" "<L>", "max features per DFS";
        threshold: f64 = 10.0, "--threshold" "<x>", "differentiability threshold in percent";
        algorithm: Algorithm = Algorithm::MultiSwap, "--algorithm" "<name>",
            "snippet | greedy | single-swap | multi-swap";
        select: Vec<usize> = Vec::new(), "--select" "<list>",
            "1-based result numbers to compare, e.g. 1,3 (default: the first 4)";
        seed: u64 = 42, "--seed" "<n>", "generator seed of the synthetic datasets";
        ranked: bool = false, "--ranked" "", "order results by relevance (TF-IDF)";
        top: Option<usize> = None, "--top" "<k>",
            "compare the first k results instead of 4; with\n\
             --ranked the listing itself is bounded to the\n\
             best k (streaming executor)";
        explain: bool = false, "--explain" "",
            "print executor counters (postings scanned,\n\
             gallop probes, candidates pruned)";
        trace: bool = false, "--trace" "",
            "print a per-stage latency table for the query\n\
             (parse, plan, slca-stream, rank)";
        stats: bool = false, "--stats" "", "print per-result statistics panels";
        show_xml: bool = false, "--xml" "", "print each selected result's XML";
        save_index: Option<String> = None, "--save-index" "<path>",
            "serialise the inverted index after the run";
        load_index: Option<String> = None, "--load-index" "<path>",
            "restore the index instead of rebuilding it\n\
             (checked against the dataset's document)";
    }
}

command! {
    /// `xsact corpus [OPTIONS]`: query a directory (or a synthetic fleet)
    /// of documents through the sharded corpus engine.
    pub struct CorpusArgs: "corpus", "sharded multi-document engine", notes "" {
        dir: Option<String> = None, "--dir" "<path>",
            "ingest every *.xml in <path> (sorted order);\n\
             the synthetic-fleet flags below are then unused";
        docs: usize = 8, "--docs" "<n>", "synthetic movie fleet size when no --dir";
        movies: usize = 120, "--movies" "<n>", "movies per synthetic document (no --dir)";
        seed: u64 = 42, "--seed" "<n>", "fleet generator seed (no --dir)";
        query: String = "drama family".to_owned(), "--query" "<text>", "keyword query";
        shards: usize = 0, "--shards" "<n>", "shard count (0 = machine parallelism)";
        top: usize = 4, "--top" "<k>", "merged results entering the comparison";
        bound: usize = 8, "--bound" "<L>", "max features per DFS";
        threshold: f64 = 10.0, "--threshold" "<x>", "differentiability threshold in percent";
        algorithm: Algorithm = Algorithm::MultiSwap, "--algorithm" "<name>",
            "snippet | greedy | single-swap | multi-swap";
        index_dir: Option<String> = None, "--index-dir" "<path>",
            "per-document index cache for --dir corpora: indexes\n\
             found there skip the indexing scan, missing ones\n\
             are built and saved";
        explain: bool = false, "--explain" "", "print corpus-wide executor counters";
        trace: bool = false, "--trace" "",
            "print a per-stage latency table for the query\n\
             (parse, per-shard execution, merge)";
    }
}

command! {
    /// `xsact serve [OPTIONS]`: the long-lived corpus server with its TCP
    /// line-protocol front end.
    pub struct ServeArgs: "serve", "long-lived corpus server, TCP line protocol", notes
        "env XSACT_FAULTS arms deterministic fault-injection sites (chaos\n\
         testing; see the fault module docs)\n\
         protocol verbs: QUERY <text> | TOP <k> | STATS | METRICS | QUIT |\n\
         SHUTDOWN; every response ends with a lone '.' line"
    {
        dir: Option<String> = None, "--dir" "<path>",
            "serve every *.xml in <path>; without it a synthetic\n\
             movie fleet is generated";
        docs: usize = 8, "--docs" "<n>", "synthetic movie fleet size when no --dir";
        movies: usize = 120, "--movies" "<n>", "movies per synthetic document (no --dir)";
        seed: u64 = 42, "--seed" "<n>", "fleet generator seed (no --dir)";
        shards: usize = 0, "--shards" "<n>", "shard count (0 = machine parallelism)";
        index_dir: Option<String> = None, "--index-dir" "<path>",
            "per-document index cache for --dir corpora";
        addr: String = "127.0.0.1:4141".to_owned(), "--addr" "<host:port>",
            "listen address (port 0 = ephemeral, printed)";
        queue: usize = 64, "--queue" "<n>",
            "most cache misses that may wait for the execution\n\
             lock while another executes; 0 rejects all";
        top: usize = 4, "--top" "<k>", "default per-session top-k (TOP verb resets)";
        budget: Option<u64> = None, "--budget" "<n>",
            "per-session budget in posting entries scanned\n\
             (a session past it gets ERR BUDGET_EXCEEDED)";
        metrics_addr: Option<String> = None, "--metrics-addr" "<a>",
            "also serve plain-HTTP GET /metrics on <a>\n\
             (Prometheus text exposition; off by default)";
        slow_query_ms: Option<u64> = None, "--slow-query-ms" "<n>",
            "log queries slower than <n> ms end-to-end\n\
             to stderr (off by default)";
        deadline_ms: Option<u64> = None, "--deadline-ms" "<n>",
            "per-query deadline (queue wait + execute); a\n\
             query past it gets ERR DEADLINE_EXCEEDED";
        cache_entries: usize = 1024, "--cache-entries" "<n>",
            "result-page cache entry bound; 0 disables the\n\
             cache (hits skip admission and execution)";
        cache_bytes: usize = 4 << 20, "--cache-bytes" "<n>",
            "result-page cache byte bound; 0 = entry bound only";
    }
}

command! {
    /// `xsact client [OPTIONS]`: a scriptable line-protocol client (reads
    /// requests from stdin, prints each response body).
    pub struct ClientArgs: "client", "scriptable line-protocol client; requests from stdin",
        notes ""
    {
        addr: String = "127.0.0.1:4141".to_owned(), "--addr" "<host:port>", "server address";
        retry_ms: u64 = 2000, "--retry-ms" "<n>",
            "connect retry window in milliseconds (covers the race\n\
             between starting the server and the first client)";
        retry_overloaded: u32 = 0, "--retry-overloaded" "<n>",
            "retry a request answered ERR OVERLOADED up to <n> times\n\
             (exponential backoff, deterministic jitter)";
        repeat: u32 = 1, "--repeat" "<n>",
            "send each stdin request <n> times, printing every\n\
             response (cache experiments); at least 1";
    }
}

/// A parsed invocation: the classic single-document demo, the sharded
/// corpus mode, the serving runtime's two ends, or a request for the
/// usage text.
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
    /// `--help` / `-h` anywhere: the usage text, for stdout.
    Help(String),
}

/// `word` qualified by the subcommand: `corpus flag`, and plain `flag` for
/// the single-document demo.
fn qualified<T: Flags>(word: &str) -> String {
    match T::COMMAND {
        "" => word.to_owned(),
        command => format!("{command} {word}"),
    }
}

/// The `--help` section of one subcommand, rendered from its table: heading,
/// a row per flag with its default in brackets, then the notes.
fn help_section<T: Flags>() -> String {
    const HELP_COLUMN: usize = 25;
    let defaults = T::default();
    let mut out = format!("{} ({}):\n", qualified::<T>("options").to_uppercase(), T::ABOUT);
    for row in T::FLAGS {
        let usage = format!("    {} {}", row.name, row.value);
        let default = (row.show)(&defaults).map(|d| format!(" [{d}]")).unwrap_or_default();
        let help =
            format!("{}{default}", row.help).replace('\n', &format!("\n{:HELP_COLUMN$}", ""));
        out.push_str(&format!("{usage:<width$} {help}\n", width = HELP_COLUMN - 1));
    }
    for note in T::NOTES.lines() {
        out.push_str(&format!("    {note}\n"));
    }
    out
}

/// The full `--help` text: the four invocation forms, then every section.
fn usage() -> String {
    fn form<T: Flags>() -> String {
        let options = format!("[{}]", qualified::<T>("options").to_uppercase());
        format!("    xsact {}\n", qualified::<T>(&options))
    }
    format!(
        "xsact — compare structured search results (VLDB 2010 demo reproduction)\n\n\
         USAGE:\n{}{}{}{}\n{}\n{}\n{}\n{}",
        form::<Args>(),
        form::<CorpusArgs>(),
        form::<ServeArgs>(),
        form::<ClientArgs>(),
        help_section::<Args>(),
        help_section::<CorpusArgs>(),
        help_section::<ServeArgs>(),
        help_section::<ClientArgs>(),
    )
}

/// Reads one subcommand's flags off `argv` into its defaults; `None` when
/// `--help` is among them.
fn parse_flags<T: Flags>(mut argv: impl Iterator<Item = String>) -> Result<Option<T>, ArgError> {
    let mut args = T::default();
    while let Some(flag) = argv.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let Some(row) = T::FLAGS.iter().find(|row| row.name == flag) else {
            return Err(ArgError(format!(
                "unknown {} {flag:?}\n\n{}",
                qualified::<T>("flag"),
                help_section::<T>()
            )));
        };
        let text = match row.value {
            "" => String::new(),
            _ => argv.next().ok_or_else(|| ArgError(format!("{flag} requires a value")))?,
        };
        (row.set)(&mut args, &text)?;
    }
    Ok(Some(args))
}

/// Parses `argv[1..]`: a leading `corpus`, `serve` or `client` selects that
/// subcommand, anything else is the classic single-document demo.
pub fn parse<I>(argv: I) -> Result<Command, ArgError>
where
    I: Iterator<Item = String>,
{
    let mut argv = argv.peekable();
    let subcommand = argv.next_if(|word| ["corpus", "serve", "client"].contains(&word.as_str()));
    let command = match subcommand.as_deref() {
        Some("corpus") => parse_flags(argv)?.map(Command::Corpus),
        Some("serve") => parse_flags(argv)?.map(Command::Serve),
        Some("client") => parse_flags(argv)?.map(|mut args: ClientArgs| {
            args.repeat = args.repeat.max(1);
            Command::Client(args)
        }),
        _ => parse_flags(argv)?.map(|mut args: Args| {
            if args.query.is_empty() {
                args.query = default_query(args.dataset).to_owned();
            }
            Command::Single(args)
        }),
    };
    Ok(command.unwrap_or_else(|| Command::Help(usage())))
}

/// The demo query shown for each dataset.
fn default_query(dataset: Dataset) -> &'static str {
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
    fn ranked_flag() {
        assert!(parse_ok(&["--ranked"]).ranked);
        assert!(!parse_ok(&[]).ranked);
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
        assert!(err(&["--semantics", "elca"]).0.contains("unknown flag \"--semantics\""));
        assert!(err(&["--frobnicate"]).0.contains("unknown flag \"--frobnicate\""));
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
        assert_eq!((s.queue, s.top), (64, 4));
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
        assert_eq!((s.queue, s.top), (8, 3));
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
        assert!(err(&["client", "--queue", "1"]).0.contains("unknown client flag"));
        assert!(err(&["client", "--retry-ms"]).0.contains("requires a value"));
        assert!(err(&["client", "--retry-overloaded", "x"]).0.contains("integer"));
    }

    /// `--help` is an outcome, not an error: the usage text, for stdout.
    #[test]
    fn help_is_the_usage_text_in_every_mode() {
        for argv in [
            &["--help"][..],
            &["-h"],
            &["--bound", "3", "--help"],
            &["corpus", "--help"],
            &["serve", "--top", "2", "-h"],
            &["client", "--help"],
        ] {
            match parse(argv.iter().map(|s| s.to_string())).expect("--help parses") {
                Command::Help(text) => assert_eq!(text, usage()),
                other => panic!("{argv:?}: expected help, got {other:?}"),
            }
        }
        let text = usage();
        assert!(!text.contains("xsact-demo"), "the binary is `xsact`");
        for form in [
            "    xsact [OPTIONS]\n",
            "    xsact corpus [CORPUS OPTIONS]\n",
            "    xsact serve [SERVE OPTIONS]\n",
            "    xsact client [CLIENT OPTIONS]\n",
        ] {
            assert!(text.contains(form), "{form:?} missing");
        }
        for heading in
            ["\nOPTIONS (", "\nCORPUS OPTIONS (", "\nSERVE OPTIONS (", "\nCLIENT OPTIONS ("]
        {
            assert!(text.contains(heading), "{heading:?} missing");
        }
    }

    /// Walks one subcommand's table: every row parses, is in the help text
    /// under its flag, and the default the help shows is the `Default`
    /// struct's field.
    fn walk_table<T: Flags + fmt::Debug>() {
        let (text, defaults) = (usage(), format!("{:?}", T::default()));
        let section = help_section::<T>();
        assert!(text.contains(&section));
        for row in T::FLAGS {
            let shown = (row.show)(&T::default());
            let mut argv = vec![row.name.to_owned()];
            if !row.value.is_empty() {
                argv.push(shown.clone().unwrap_or_else(|| "1".to_owned()));
            }
            let parsed: T = parse_flags(argv.into_iter())
                .unwrap_or_else(|e| panic!("{}: {e}", row.name))
                .expect("not a help request");
            let line = section
                .lines()
                .find(|line| line.starts_with(&format!("    {} ", row.name)))
                .unwrap_or_else(|| panic!("{} is not in the help text", row.name));
            assert!(line.contains(row.help.lines().next().unwrap()), "{line}");
            match shown {
                Some(default) => {
                    assert!(
                        section.contains(&format!(" [{default}]\n")),
                        "{}: {default}",
                        row.name
                    );
                    assert_eq!(format!("{parsed:?}"), defaults, "{} {default}", row.name);
                }
                None => assert_ne!(format!("{parsed:?}"), defaults, "{} changes nothing", row.name),
            }
        }
        let mut names: Vec<_> = T::FLAGS.iter().map(|row| row.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), T::FLAGS.len(), "a flag is one row");
    }

    #[test]
    fn every_row_parses_is_documented_and_shows_its_real_default() {
        walk_table::<Args>();
        walk_table::<CorpusArgs>();
        walk_table::<ServeArgs>();
        walk_table::<ClientArgs>();
    }
}
