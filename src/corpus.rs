//! The [`Corpus`]: a sharded, multi-document workbench pool.
//!
//! One [`Workbench`] serves one document; a `Corpus`
//! serves many. It ingests XML documents (strings, generated fixtures, or
//! a directory of `.xml` files), builds one workbench per document, and
//! executes every query by **fanning out across shards in parallel** and
//! **k-way merging** the per-shard ranked lists into one deterministic
//! global ranking tagged with document ids:
//!
//! * documents are assigned to shards round-robin
//!   ([`xsact_corpus::ShardPlan`]) — a pure function of document count and
//!   shard count;
//! * each shard worker (a std scoped thread, see [`xsact_corpus::fan_out`])
//!   runs the ranked search over its documents;
//! * per-shard lists merge under a *total* order — score descending, then
//!   document id, then node id (document order) — so the merged ranking is
//!   byte-identical for any shard count.
//!
//! The top of the merged ranking — or the hits ticked by position with
//! [`CorpusQuery::select`] — can be compared *across documents*: the
//! corpus pulls each hit's features from its owning workbench (cached,
//! thread-safe) and builds one comparison table whose columns may come
//! from different documents. A [`CorpusQuery`] keeps only the fan-out and
//! merge; the selection rule, error order and memos are shared with
//! [`crate::QueryPipeline`] (`src/selection.rs`).
//!
//! ```
//! use xsact::corpus::Corpus;
//! use xsact::Algorithm;
//!
//! # fn main() -> Result<(), xsact::XsactError> {
//! let corpus = Corpus::synthetic_movies(4, 60, 42).with_shards(2);
//! let outcome = corpus.query("drama family")?.top(4).compare(Algorithm::MultiSwap)?;
//! assert!(outcome.hits.iter().any(|h| h.doc != outcome.hits[0].doc), "spans documents");
//! println!("{}", outcome.table());
//! # Ok(())
//! # }
//! ```

use crate::error::{XsactError, XsactResult};
use crate::selection::{Selection, Source};
use crate::workbench::Workbench;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{self, AtomicU64};
use std::sync::Arc;
use xsact_core::{Algorithm, ComparisonOutcome};
use xsact_corpus::{fan_out, k_way_merge};
use xsact_data::movies::{MovieGenConfig, MoviesGen};
use xsact_entity::ResultFeatures;
use xsact_index::{ExecutorStats, Query, RankedRoot, ScoredResult, SearchEngine, SearchResult};
use xsact_obs::TraceSink;
use xsact_serve::FaultPlan;
use xsact_xml::Document;

pub use xsact_corpus::{DocId, ShardPlan};

/// The demo compares the first four ticked results; corpus queries default
/// to the same top-k.
pub const DEFAULT_TOP: usize = 4;

/// One ingested document: its stable id, display name, and workbench.
/// The name is an `Arc<str>` because every hit of every query carries it —
/// tagging a hit must not allocate in the fan-out hot path.
#[derive(Debug)]
struct CorpusDoc {
    id: DocId,
    name: Arc<str>,
    wb: Workbench,
}

/// A sharded pool of per-document workbenches; see the module docs.
#[derive(Debug)]
pub struct Corpus {
    docs: Vec<CorpusDoc>,
    shards: usize,
    /// Armed fault-injection sites for the persistence paths (chaos
    /// testing only); disarmed by default, which costs one branch.
    faults: FaultPlan,
}

impl Corpus {
    /// An empty corpus with the default shard count (the machine's
    /// available parallelism). Add documents with
    /// [`add_document`](Self::add_document) / [`add_xml`](Self::add_xml).
    pub fn new() -> Corpus {
        Corpus { docs: Vec::new(), shards: available_cores(), faults: FaultPlan::disarmed() }
    }

    /// Parses and ingests `(name, xml)` pairs. Fails with
    /// [`XsactError::Xml`] on the first malformed document.
    pub fn from_xml_strings<'a>(
        docs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> XsactResult<Corpus> {
        let mut corpus = Corpus::new();
        for (name, xml) in docs {
            corpus.add_xml(name, xml)?;
        }
        Ok(corpus)
    }

    /// Ingests every `*.xml` file of `dir` in **sorted filename order**
    /// (so document ids are stable across runs and machines), using the
    /// file stem as the document name. Files are read, parsed and indexed
    /// on every core; the error reported for a directory with several bad
    /// files is always the first in filename order. Fails with
    /// [`XsactError::EmptyCorpus`] when the directory holds no XML files.
    pub fn from_dir(dir: impl AsRef<Path>) -> XsactResult<Corpus> {
        Corpus::from_dir_impl(dir.as_ref(), None, available_cores())
    }

    /// Like [`from_dir`](Self::from_dir), but skips the per-document
    /// indexing scan whenever `index_dir` holds a previously saved index
    /// for the document (`<stem>.xidx`, fingerprint-checked), and saves
    /// any index it did have to build — so each shard's cold start is paid
    /// once, not on every process launch.
    ///
    /// A stale or corrupt index file is never trusted: the fingerprint
    /// check makes the load fail, and the corpus rebuilds and overwrites
    /// it after one warning on stderr.
    pub fn from_dir_cached(
        dir: impl AsRef<Path>,
        index_dir: impl AsRef<Path>,
    ) -> XsactResult<Corpus> {
        fs::create_dir_all(index_dir.as_ref())?;
        Corpus::from_dir_impl(dir.as_ref(), Some(index_dir.as_ref()), available_cores())
    }

    /// `workers` is a parameter (not configuration) so the tests can pin
    /// that the ingest width never changes ids, names or rankings.
    fn from_dir_impl(dir: &Path, index_dir: Option<&Path>, workers: usize) -> XsactResult<Corpus> {
        let mut paths: Vec<_> = fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "xml"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(XsactError::EmptyCorpus);
        }
        let ingested = ingest_in_order(paths, workers, |path| ingest_file(&path, index_dir))?;
        Ok(Corpus::from_workbenches(ingested))
    }

    /// A synthetic fleet of movie datasets — `docs` documents of
    /// `movies_per_doc` movies each, seeded `seed`, `seed + 1`, … so every
    /// document differs but the whole corpus is reproducible. Used by the
    /// scaling bench, the corpus tests, and the CLI's `--docs` mode.
    pub fn synthetic_movies(docs: usize, movies_per_doc: usize, seed: u64) -> Corpus {
        Corpus::synthetic_movies_impl(docs, movies_per_doc, seed, available_cores())
    }

    fn synthetic_movies_impl(
        docs: usize,
        movies_per_doc: usize,
        seed: u64,
        workers: usize,
    ) -> Corpus {
        // Generation is per-document work too, so it happens inside the
        // workers, next to the index build.
        Corpus::from_workbenches(build_in_order((0..docs).collect(), workers, |i| {
            let cfg = MovieGenConfig {
                seed: seed + i as u64,
                movies: movies_per_doc,
                ..Default::default()
            };
            (format!("movies-{i:02}"), Workbench::from_document(MoviesGen::new(cfg).generate()))
        }))
    }

    fn from_workbenches(built: Vec<(String, Workbench)>) -> Corpus {
        let mut corpus = Corpus::new();
        for (name, wb) in built {
            corpus.push(name, wb);
        }
        corpus
    }

    /// Sets the shard count (builder form). Values are clamped to `1..`;
    /// counts above the document count leave trailing shards empty, which
    /// is harmless. The shard count **never** affects query results — only
    /// how the work is spread over threads.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Corpus {
        self.set_shards(shards);
        self
    }

    /// Sets the shard count in place.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Arms fault-injection sites on the persistence paths in place; chaos
    /// tests only.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Ingests a parsed document under `name`, returning its id.
    pub fn add_document(&mut self, name: impl Into<String>, doc: Document) -> DocId {
        self.push(name.into(), Workbench::from_document(doc))
    }

    /// Parses and ingests an XML string under `name`.
    pub fn add_xml(&mut self, name: impl Into<String>, xml: &str) -> XsactResult<DocId> {
        Ok(self.push(name.into(), Workbench::from_xml(xml)?))
    }

    fn push(&mut self, name: String, wb: Workbench) -> DocId {
        let id = DocId(self.docs.len() as u32);
        self.docs.push(CorpusDoc { id, name: name.into(), wb });
        id
    }

    /// Number of ingested documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The display name of a document.
    pub fn doc_name(&self, id: DocId) -> &str {
        &self.docs[id.index()].name
    }

    /// The workbench serving a document, for layer-level access.
    pub fn workbench(&self, id: DocId) -> &Workbench {
        &self.docs[id.index()].wb
    }

    /// Saves every document's inverted index into `dir` as
    /// `<name>.xidx`, for later cold-start skipping via
    /// [`from_dir_cached`](Self::from_dir_cached). Each file is written
    /// crash-safely (see [`save_index_atomic`]): a crash mid-save leaves
    /// the previous file (or none), never a torn one.
    pub fn save_indexes(&self, dir: impl AsRef<Path>) -> XsactResult<()> {
        fs::create_dir_all(dir.as_ref())?;
        for doc in &self.docs {
            let path = dir.as_ref().join(format!("{}.xidx", doc.name));
            save_index_atomic_faulted(&doc.wb, &path, &self.faults)?;
        }
        Ok(())
    }

    /// Starts a corpus-wide query. Fails with
    /// [`XsactError::EmptyQuery`] / [`XsactError::EmptyCorpus`] before any
    /// thread is spawned.
    pub fn query(&self, text: &str) -> XsactResult<CorpusQuery<'_>> {
        CorpusQuery::new(self, text, None)
    }

    /// [`query`](Self::query) with a stage trace attached from the start:
    /// the `parse` span, one `shard N` span per worker (so skew across
    /// shards is visible), and the global `merge` span all land in
    /// `sink`. Tracing never changes the ranked bytes (pinned by
    /// `tests/obs.rs`).
    pub fn query_traced<'a>(
        &'a self,
        text: &str,
        sink: &'a TraceSink,
    ) -> XsactResult<CorpusQuery<'a>> {
        CorpusQuery::new(self, text, Some(sink))
    }

    /// Executor counters aggregated over every document workbench — the
    /// corpus-wide view of [`Workbench::executor_stats`].
    pub fn executor_stats(&self) -> ExecutorStats {
        self.docs.iter().fold(ExecutorStats::default(), |acc, doc| acc + doc.wb.executor_stats())
    }

    /// The number of shards a query will actually use: empty shards are
    /// not spawned, so this is `min(shards, len)`.
    pub fn effective_shards(&self) -> usize {
        self.shards.min(self.docs.len()).max(1)
    }

    /// One shard's unit of work — the only one, run by the scoped-thread
    /// fan-out ([`CorpusQuery::ranking`], a batch of one) and by the
    /// serving runtime's persistent shard pool (`crate::serve`, a whole
    /// dispatch round): rank each document of the shard's round-robin
    /// slice through the streaming executor, each query bounded by its own
    /// `k`, then per query merge the per-document lists under the
    /// ranking's total order, truncate to `k`, and label what is left.
    /// Because both execution paths run *this* function over *the same*
    /// [`ShardPlan`] partition, pooling can never change result bytes.
    ///
    /// A batch is a plain loop over its queries — each member runs exactly
    /// as it would alone — kept so the pool still needs one broadcast per
    /// dispatch round.
    ///
    /// Returns, per query, the shard's merged list plus the executor work
    /// it cost, summed over the shard's documents (also recorded into each
    /// owning workbench's cumulative counters).
    pub(crate) fn execute_shard_batch(
        &self,
        queries: &[(Query, usize)],
        doc_indexes: &[usize],
    ) -> Vec<(Vec<CorpusHit>, ExecutorStats)> {
        queries
            .iter()
            .map(|(query, k)| {
                let mut stats = ExecutorStats::default();
                let per_doc: Vec<Vec<ShardCandidate<'_>>> = doc_indexes
                    .iter()
                    .map(|&d| {
                        let doc = &self.docs[d];
                        let (roots, doc_stats) = doc.wb.top_k_roots(query, *k, None);
                        stats += doc_stats;
                        roots.into_iter().map(|ranked| ShardCandidate { doc, ranked }).collect()
                    })
                    .collect();
                (merge_shard_candidates(per_doc, *k), stats)
            })
            .collect()
    }
}

impl Default for Corpus {
    fn default() -> Self {
        Corpus::new()
    }
}

/// The default width of both query fan-out (shards) and ingest (workers).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `ingest` over `items` on `min(workers, items)` threads and returns
/// the outputs **in item order**, whatever order they finished in — so
/// document ids, names and rankings never depend on the ingest width.
/// Documents are independent at boot, so they spread over the same
/// round-robin [`ShardPlan`] partition and scoped [`fan_out`] queries use;
/// one worker runs on the calling thread and is the exact serial loop.
///
/// A worker stops at its first failure. Since each worker walks its items
/// in ascending order, the lowest-indexed failure overall is always
/// reached, and it is the error returned — not whichever came first on the
/// clock.
fn ingest_in_order<T: Send, R: Send, E: Send>(
    items: Vec<T>,
    workers: usize,
    ingest: impl Fn(T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let workers = workers.clamp(1, items.len().max(1));
    let mut parts: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    let plan = ShardPlan::new(workers);
    for (i, item) in items.into_iter().enumerate() {
        parts[plan.shard_of(DocId(i as u32))].push((i, item));
    }
    let mut done: Vec<(usize, Result<R, E>)> = fan_out(parts, |_, part| {
        let mut out = Vec::with_capacity(part.len());
        for (i, item) in part {
            let result = ingest(item);
            let failed = result.is_err();
            out.push((i, result));
            if failed {
                break;
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    // In index order a failure precedes every item its worker skipped, so
    // collecting stops at the error before it could meet a gap.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// [`ingest_in_order`] for sources that cannot fail (documents already
/// parsed or generated in place).
fn build_in_order<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    build: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    ingest_in_order(items, workers, |item| Ok::<_, Infallible>(build(item)))
        .unwrap_or_else(|never| match never {})
}

/// One document's boot: read → parse → load the cached index or build it
/// → save what was built. Returns the document's name and workbench.
fn ingest_file(path: &Path, index_dir: Option<&Path>) -> XsactResult<(String, Workbench)> {
    let name = path
        .file_stem()
        .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned());
    // The parser copies what it keeps into the document's arena, so the
    // source text is dropped here — before the index is loaded or built and
    // the structure summary inferred, not beside them.
    let doc = {
        let source = fs::read_to_string(path)?;
        xsact_xml::parse_document(&source)?
    };
    let Some(index_dir) = index_dir else {
        return Ok((name, Workbench::from_document(doc)));
    };
    let index_path = index_dir.join(format!("{name}.xidx"));
    let loaded =
        fs::File::open(&index_path).and_then(|mut file| xsact_index::load_index(&doc, &mut file));
    match loaded {
        // The document moves into the engine; it was only borrowed by the
        // loader, so the rebuild arm below still owns it.
        Ok(index) => {
            return Ok((name, Workbench::from_engine(SearchEngine::from_parts(doc, index))))
        }
        // No cache file yet (cold start) — build and write it quietly.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        // Degrade loudly but gracefully: one warning per unusable file
        // saying *why* (unreadable, stale fingerprint, checksum mismatch,
        // old version), then rebuild from the XML and resave so the next
        // launch loads cleanly.
        Err(e) => eprintln!(
            "xsact: index cache {} unusable ({}); rebuilding from XML",
            index_path.display(),
            XsactError::from(e)
        ),
    }
    let wb = Workbench::from_document(doc);
    // Best-effort cache write: the corpus is already built in memory, so
    // an unwritable index_dir (read-only, disk full) must not fail
    // ingestion — the next load just rebuilds again.
    let _ = save_index_atomic(&wb, &index_path);
    Ok((name, wb))
}

/// Crash-safe index save: the bytes go to a temp file next to `path`, are
/// fsynced, and only then atomically renamed over `path`. A crash (or
/// `kill -9`) at any point leaves either the previous file or no file
/// under the final name — never a torn one — and the `.xidx` checksum
/// trailer catches anything the filesystem still manages to mangle. The
/// temp file is removed on failure; its name carries the process id and a
/// per-process counter, so concurrent saves of one path (two servers
/// booting on one `--index-dir`) never write into each other's file.
pub fn save_index_atomic(wb: &Workbench, path: &Path) -> XsactResult<()> {
    save_index_atomic_faulted(wb, path, &FaultPlan::disarmed())
}

/// [`save_index_atomic`] with an `io_error_on_save` injection site, for
/// the chaos suite to prove a failed save never leaves a temp file or a
/// loadable-but-wrong index behind.
fn save_index_atomic_faulted(wb: &Workbench, path: &Path, faults: &FaultPlan) -> XsactResult<()> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let tmp = {
        let nth = SAVES.fetch_add(1, atomic::Ordering::Relaxed);
        let mut os = path.as_os_str().to_owned();
        os.push(format!(".tmp.{}.{nth}", std::process::id()));
        PathBuf::from(os)
    };
    let result = (|| -> XsactResult<()> {
        let mut file = fs::File::create(&tmp)?;
        wb.save_index(&mut file)?;
        if faults.should_fire("io_error_on_save", 0).is_some() {
            return Err(XsactError::Io(io::Error::other("injected io_error_on_save fault")));
        }
        // fsync before the rename: an atomic rename of unsynced bytes can
        // still surface an empty file after a power loss.
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// One entry of a merged corpus ranking: a search result plus the document
/// it came from and its relevance score.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusHit {
    /// Owning document.
    pub doc: DocId,
    /// The owning document's display name (shared, not per-hit allocated).
    pub doc_name: Arc<str>,
    /// The result subtree inside that document. Its root is the last key
    /// of the merge's total order.
    pub result: SearchResult,
    /// Relevance score and its components.
    pub score: ScoredResult,
}

impl CorpusHit {
    /// The merge's total order: score descending, then document id, then
    /// the root's node id. Depends only on the hit itself — never on shard
    /// count or thread timing — which is what makes corpus rankings
    /// deterministic. `pub(crate)` so the serving runtime's global merge
    /// uses the *same* comparator as the scoped fan-out.
    pub(crate) fn ranking_order(&self, other: &CorpusHit) -> Ordering {
        ranking_order(&self.score, self.doc, &other.score, other.doc)
    }
}

/// The merged, deterministic result of one corpus query.
#[derive(Debug, Clone)]
pub struct CorpusRanking {
    /// Globally ranked hits, best first.
    pub hits: Vec<CorpusHit>,
    /// How many shard workers produced it.
    pub shards: usize,
}

impl CorpusRanking {
    /// Renders the top `limit` entries, one line per hit — the corpus
    /// analogue of the demo's result page.
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::new();
        for (i, hit) in self.hits.iter().take(limit).enumerate() {
            out.push_str(&format!(
                "  [{:>2}] {}  @{}  (score {:.3})\n",
                i + 1,
                hit.result.label,
                hit.doc_name,
                hit.score.score
            ));
        }
        out
    }
}

/// The outcome of a cross-document comparison: which hits were compared,
/// and the comparison table they produced.
#[derive(Debug, Clone)]
pub struct CorpusOutcome {
    /// The compared hits, in ranking order (= table column order).
    pub hits: Vec<CorpusHit>,
    /// The underlying comparison result.
    pub comparison: ComparisonOutcome,
}

impl CorpusOutcome {
    /// Total degree of differentiation.
    pub fn dod(&self) -> u32 {
        self.comparison.dod()
    }

    /// The cross-document comparison table.
    pub fn table(&self) -> String {
        self.comparison.table()
    }
}

/// A configured query over a [`Corpus`]: fan out, merge, optionally
/// compare.
#[derive(Debug, Clone)]
pub struct CorpusQuery<'a> {
    sel: Selection<FanOut<'a>>,
}

/// Where a corpus query's lists come from: the fan-out over the corpus's
/// shards and the merge of what they return.
#[derive(Debug, Clone, Copy)]
struct FanOut<'a> {
    corpus: &'a Corpus,
    /// Where stage spans go when the caller asked for a trace
    /// ([`Corpus::query_traced`]); `None` takes no timestamps.
    trace: Option<&'a TraceSink>,
}

impl Source for FanOut<'_> {
    type Hit = CorpusHit;
    type List = CorpusRanking;

    /// The one fan-out/merge behind both memos: spawn min(shards,
    /// documents) workers, rank each worker's round-robin document slice
    /// through the streaming executor bounded by `k`, merge per shard, then
    /// merge the shard lists — every merge truncated to `k`.
    fn top(&self, query: &Query, k: usize) -> CorpusRanking {
        let FanOut { corpus, trace } = *self;
        let batch = [(query.clone(), k)];
        let shards = corpus.effective_shards();
        // effective_shards() ≤ document count, so round-robin
        // partitioning never produces an empty shard.
        let parts = ShardPlan::new(shards).partition(corpus.docs.len());
        let shard_lists = fan_out(parts, |shard, doc_indexes| {
            let span = trace.map(|sink| sink.span(format!("shard {shard}")));
            let (hits, stats) = corpus
                .execute_shard_batch(&batch, &doc_indexes)
                .pop()
                .expect("one answer per query of the batch");
            if let Some(mut span) = span {
                span.note("docs", doc_indexes.len() as u64);
                span.note("postings_scanned", stats.postings_scanned);
                span.note("hits", hits.len() as u64);
                span.finish();
            }
            hits
        });
        let span = trace.map(|sink| sink.span("merge"));
        let candidates: usize = shard_lists.iter().map(Vec::len).sum();
        let ranking = merge_shard_lists(shard_lists, k, shards);
        if let Some(mut span) = span {
            span.note("candidates", candidates as u64);
            span.note("kept", ranking.hits.len() as u64);
            span.finish();
        }
        ranking
    }

    /// In a multi-document corpus the label is qualified with the document
    /// name, so equally-named results stay distinguishable table columns.
    fn features(&self, hit: &CorpusHit, label: &mut String) -> Arc<ResultFeatures> {
        label.clear();
        label.push_str(&hit.result.label);
        if self.corpus.len() > 1 {
            label.extend([" (", &hit.doc_name, ")"]);
        }
        self.corpus.docs[hit.doc.index()].wb.shared_features(hit.result.root, label.as_str())
    }
}

impl AsRef<[CorpusHit]> for CorpusRanking {
    fn as_ref(&self) -> &[CorpusHit] {
        &self.hits
    }
}

impl<'a> CorpusQuery<'a> {
    /// Fails with [`XsactError::EmptyCorpus`] before the query is parsed.
    fn new(corpus: &'a Corpus, text: &str, trace: Option<&'a TraceSink>) -> XsactResult<Self> {
        if corpus.is_empty() {
            return Err(XsactError::EmptyCorpus);
        }
        let mut sel = Selection::parse(FanOut { corpus, trace }, text, trace)?;
        sel.set_take(DEFAULT_TOP);
        Ok(CorpusQuery { sel })
    }

    /// How many merged results enter the comparison (default
    /// [`DEFAULT_TOP`]), pushed down into every shard's executor.
    #[must_use]
    pub fn top(mut self, k: usize) -> Self {
        self.sel.set_take(k);
        self
    }

    /// Compares exactly the given 1-based positions of the full merged
    /// [`ranking`](Self::ranking). Takes precedence over
    /// [`top`](Self::top); an out-of-range position surfaces as
    /// [`XsactError::InvalidSelection`] at execution time.
    #[must_use]
    pub fn select(mut self, positions: impl IntoIterator<Item = usize>) -> Self {
        self.sel.set_select(positions.into_iter().collect());
        self
    }

    /// Sets the comparison-table size bound `L` (features per DFS).
    #[must_use]
    pub fn size_bound(mut self, bound: usize) -> Self {
        self.sel.config_mut().size_bound = bound;
        self
    }

    /// Sets the differentiability threshold `x` in percent.
    #[must_use]
    pub fn threshold(mut self, pct: f64) -> Self {
        self.sel.config_mut().threshold_pct = pct;
        self
    }

    /// The query text, as parsed.
    pub fn query_text(&self) -> String {
        self.sel.query().to_string()
    }

    /// The merged global ranking, fanned out once; byte-identical for
    /// every shard count.
    pub fn ranking(&self) -> &CorpusRanking {
        self.sel.full()
    }

    /// The features of the selected hits, pulled from each hit's owning
    /// workbench (cached), as owned copies.
    pub fn features(&self) -> XsactResult<Vec<ResultFeatures>> {
        self.sel.features()
    }

    /// Compares the selected hits — which may span several documents —
    /// in one comparison table.
    pub fn compare(&self, algorithm: Algorithm) -> XsactResult<CorpusOutcome> {
        let comparison = self.sel.compare(algorithm)?;
        Ok(CorpusOutcome { hits: self.sel.map_selected(CorpusHit::clone)?, comparison })
    }
}

/// The global half of the merge pipeline, shared by the scoped fan-out and
/// the serving runtime: k-way merge the per-shard lists under the
/// ranking's total order and truncate to `k`.
pub(crate) fn merge_shard_lists(
    shard_lists: Vec<Vec<CorpusHit>>,
    k: usize,
    shards: usize,
) -> CorpusRanking {
    let mut hits = k_way_merge(shard_lists, CorpusHit::ranking_order);
    hits.truncate(k);
    CorpusRanking { hits, shards }
}

/// One ranked root on its way through a shard's merge. A shard ranks every
/// one of its documents to depth `k` and keeps `k` in total, so most
/// candidates are dropped by the merge; only a survivor becomes a
/// [`CorpusHit`] and is given its display label.
struct ShardCandidate<'a> {
    doc: &'a CorpusDoc,
    ranked: RankedRoot,
}

impl ShardCandidate<'_> {
    /// [`CorpusHit::ranking_order`] before labelling.
    fn ranking_order(&self, other: &ShardCandidate<'_>) -> Ordering {
        ranking_order(&self.ranked.score, self.doc.id, &other.ranked.score, other.doc.id)
    }

    fn into_hit(self) -> CorpusHit {
        let ShardCandidate { doc, ranked } = self;
        CorpusHit {
            doc: doc.id,
            doc_name: doc.name.clone(),
            result: doc.wb.engine().result_for(&ranked),
            score: ranked.score,
        }
    }
}

/// The merge's total order on its keys: score descending, then document
/// id, then the root's node id — document order within a document.
fn ranking_order(a: &ScoredResult, a_doc: DocId, b: &ScoredResult, b_doc: DocId) -> Ordering {
    b.score.total_cmp(&a.score).then_with(|| a_doc.cmp(&b_doc)).then_with(|| a.root.cmp(&b.root))
}

/// The shard-local half of the merge pipeline: k-way merge the
/// per-document lists under the ranking's total order, keep `k`, and
/// materialise only those.
fn merge_shard_candidates(per_doc: Vec<Vec<ShardCandidate<'_>>>, k: usize) -> Vec<CorpusHit> {
    let mut merged = k_way_merge(per_doc, ShardCandidate::ranking_order);
    merged.truncate(k);
    merged.into_iter().map(ShardCandidate::into_hit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shop(tag: &str, products: &[(&str, &str)]) -> String {
        let mut xml = format!("<{tag}>");
        for (name, kind) in products {
            xml.push_str(&format!("<product><name>{name}</name><kind>{kind}</kind></product>"));
        }
        xml.push_str(&format!("</{tag}>"));
        xml
    }

    fn small_corpus() -> Corpus {
        let a = shop("shop", &[("Alpha gps", "gps"), ("Beta cam", "camera")]);
        let b = shop("shop", &[("Gamma gps", "gps navigation")]);
        let c = shop("shop", &[("Delta player", "audio")]);
        Corpus::from_xml_strings([
            ("store-a", a.as_str()),
            ("store-b", b.as_str()),
            ("store-c", c.as_str()),
        ])
        .unwrap()
    }

    #[test]
    fn corpus_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Corpus>();
    }

    #[test]
    fn ingestion_assigns_stable_ids_and_names() {
        let corpus = small_corpus();
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.doc_name(DocId(0)), "store-a");
        assert_eq!(corpus.doc_name(DocId(2)), "store-c");
        assert!(!corpus.is_empty());
    }

    #[test]
    fn query_tags_hits_with_document_ids() {
        let corpus = small_corpus().with_shards(2);
        let query = corpus.query("gps").unwrap();
        let ranking = query.ranking();
        assert_eq!(ranking.hits.len(), 2);
        let docs: Vec<DocId> = ranking.hits.iter().map(|h| h.doc).collect();
        assert!(docs.contains(&DocId(0)) && docs.contains(&DocId(1)));
        let rendered = ranking.render(10);
        assert!(rendered.contains("@store-a") && rendered.contains("@store-b"));
    }

    #[test]
    fn empty_corpus_and_empty_query_are_typed() {
        let empty = Corpus::new();
        assert!(matches!(empty.query("gps"), Err(XsactError::EmptyCorpus)));
        let corpus = small_corpus();
        assert!(matches!(corpus.query("???"), Err(XsactError::EmptyQuery)));
        assert!(matches!(
            corpus.query("zeppelin").unwrap().compare(Algorithm::MultiSwap),
            Err(XsactError::NoResults { .. })
        ));
    }

    #[test]
    fn single_hit_cannot_compare() {
        let corpus = small_corpus();
        let err = corpus.query("audio").unwrap().compare(Algorithm::MultiSwap).unwrap_err();
        assert!(matches!(err, XsactError::NotEnoughResults { found: 1, .. }));
    }

    #[test]
    fn shard_count_never_changes_the_ranking() {
        let mut corpus = Corpus::synthetic_movies(5, 40, 7);
        let baseline = {
            corpus.set_shards(1);
            corpus.query("drama family").unwrap().ranking().clone()
        };
        assert!(baseline.hits.len() > 2);
        for shards in [2, 3, 8, 64] {
            corpus.set_shards(shards);
            let query = corpus.query("drama family").unwrap();
            assert_eq!(query.ranking().render(100), baseline.render(100), "{shards} shards");
        }
    }

    #[test]
    fn comparison_spans_documents_with_qualified_labels() {
        let corpus = small_corpus();
        let outcome = corpus.query("gps").unwrap().top(2).compare(Algorithm::MultiSwap).unwrap();
        let labels = outcome.comparison.labels().join(" | ");
        assert!(labels.contains("(store-a)") && labels.contains("(store-b)"), "{labels}");
        assert!(outcome.hits[0].doc != outcome.hits[1].doc);
        assert!(outcome.table().contains("store-a"));
    }

    #[test]
    fn synthetic_fleet_is_reproducible_but_diverse() {
        let a = Corpus::synthetic_movies(3, 20, 9);
        let b = Corpus::synthetic_movies(3, 20, 9);
        for id in [DocId(0), DocId(1), DocId(2)] {
            assert_eq!(
                xsact_xml::writer::write_subtree(
                    a.workbench(id).document(),
                    a.workbench(id).document().root()
                ),
                xsact_xml::writer::write_subtree(
                    b.workbench(id).document(),
                    b.workbench(id).document().root()
                ),
            );
        }
        // Different seeds per document: doc 0 and doc 1 differ.
        assert_ne!(
            xsact_xml::writer::write_subtree(
                a.workbench(DocId(0)).document(),
                a.workbench(DocId(0)).document().root()
            ),
            xsact_xml::writer::write_subtree(
                a.workbench(DocId(1)).document(),
                a.workbench(DocId(1)).document().root()
            ),
        );
    }

    #[test]
    fn effective_shards_clamp_to_documents() {
        let corpus = small_corpus().with_shards(64);
        assert_eq!(corpus.shards(), 64);
        assert_eq!(corpus.effective_shards(), 3);
        assert_eq!(small_corpus().with_shards(0).effective_shards(), 1);
    }

    /// A batch answers each member as it runs alone — the same hits and
    /// the same executor counters — over 64 seeded random batches
    /// (overlapping and repeated terms, `k` from 0, a term no document
    /// holds) and random document slices.
    #[test]
    fn a_batch_answers_each_member_as_it_runs_alone() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use xsact_data::vocab::{GENRES, KEYWORDS};
        let corpus = Corpus::synthetic_movies(6, 30, 3);
        let terms: Vec<&str> = GENRES.iter().chain(KEYWORDS).copied().chain(["zeppelin"]).collect();
        let mut answered = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let batch: Vec<(Query, usize)> = (0..rng.random_range(1..=6usize))
                .map(|_| {
                    let words: Vec<&str> = (0..rng.random_range(1..=3usize))
                        .map(|_| terms[rng.random_range(0..terms.len())])
                        .collect();
                    (Query::from_terms(words), rng.random_range(0..=6usize))
                })
                .collect();
            let slice: Vec<usize> = (0..corpus.len()).filter(|_| rng.random_bool(0.5)).collect();
            let together = corpus.execute_shard_batch(&batch, &slice);
            assert_eq!(together.len(), batch.len(), "seed {seed}");
            for ((query, k), answer) in batch.iter().zip(&together) {
                let alone = corpus.execute_shard_batch(&[(query.clone(), *k)], &slice);
                assert_eq!(alone.len(), 1);
                assert_eq!(answer, &alone[0], "seed {seed}: {query} k={k} slice {slice:?}");
                answered += usize::from(!answer.0.is_empty());
            }
        }
        assert!(answered > 64, "too few members matched anything: {answered}");
    }

    /// Scratch directory removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("xsact-ingest-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// Everything a ranking or a table can depend on: ids → names, each
    /// document's bytes, and rendered rankings (at a fixed shard count).
    fn observable(corpus: &Corpus) -> Vec<String> {
        let mut out: Vec<String> = (0..corpus.len())
            .map(|i| {
                let id = DocId(i as u32);
                let doc = corpus.workbench(id).document();
                format!(
                    "{id} {} {}",
                    corpus.doc_name(id),
                    xsact_xml::writer::write_subtree(doc, doc.root())
                )
            })
            .collect();
        for text in ["drama family", "war soldier", "comedy"] {
            out.push(corpus.query(text).unwrap().ranking().render(50));
        }
        out
    }

    /// The ingest width is invisible: a directory read on 1, 2 or 8
    /// workers — uncached, cold-cached and warm-cached — yields the ids,
    /// names, documents and rankings of the sequential string oracle.
    #[test]
    fn ingest_workers_1_2_8_match_the_sequential_oracle() {
        let tmp = TempDir::new("widths");
        let xml_dir = tmp.0.join("xml");
        fs::create_dir_all(&xml_dir).unwrap();
        let fleet = Corpus::synthetic_movies_impl(9, 25, 11, 1);
        // Names chosen so creation order differs from filename order.
        let mut named: Vec<(String, String)> = (0..fleet.len())
            .map(|i| {
                let doc = fleet.workbench(DocId(i as u32)).document();
                (
                    format!("set-{:02}", (i * 4) % 9),
                    xsact_xml::writer::write_subtree(doc, doc.root()),
                )
            })
            .collect();
        for (name, xml) in &named {
            fs::write(xml_dir.join(format!("{name}.xml")), xml).unwrap();
        }
        named.sort();
        let oracle = Corpus::from_xml_strings(named.iter().map(|(n, x)| (n.as_str(), x.as_str())))
            .unwrap()
            .with_shards(2);
        let want = observable(&oracle);

        for workers in [1, 2, 8] {
            let plain = Corpus::from_dir_impl(&xml_dir, None, workers).unwrap().with_shards(2);
            assert_eq!(observable(&plain), want, "{workers} workers, no cache");
            let cache = tmp.0.join(format!("index-{workers}"));
            fs::create_dir_all(&cache).unwrap();
            for pass in ["cold", "warm"] {
                let cached =
                    Corpus::from_dir_impl(&xml_dir, Some(&cache), workers).unwrap().with_shards(2);
                assert_eq!(observable(&cached), want, "{workers} workers, {pass} cache");
            }
            assert_eq!(fs::read_dir(&cache).unwrap().count(), named.len(), "one .xidx per doc");
        }
        for workers in [2, 8] {
            let fleet_n = Corpus::synthetic_movies_impl(9, 25, 11, workers).with_shards(2);
            assert_eq!(
                observable(&fleet_n),
                observable(&Corpus::synthetic_movies_impl(9, 25, 11, 1).with_shards(2)),
                "synthetic fleet on {workers} workers"
            );
        }
    }

    /// Two malformed files: the error is the first one's in filename
    /// order at every width, every time — although the second fails
    /// almost instantly and the first only after a long parse.
    #[test]
    fn first_malformed_file_in_filename_order_is_the_one_reported() {
        let tmp = TempDir::new("errors");
        let good = "<shop><product><name>ok</name></product></shop>";
        let mut slow_bad = String::from("<shop>");
        for i in 0..20_000 {
            slow_bad.push_str(&format!("<product><name>item {i}</name></product>"));
        }
        slow_bad.push_str("</oops>");
        fs::write(tmp.0.join("a.xml"), good).unwrap();
        fs::write(tmp.0.join("b.xml"), &slow_bad).unwrap();
        fs::write(tmp.0.join("c.xml"), good).unwrap();
        fs::write(tmp.0.join("d.xml"), "<unclosed>").unwrap();
        for workers in [1, 2, 8] {
            for round in 0..5 {
                let err = Corpus::from_dir_impl(&tmp.0, None, workers).unwrap_err();
                assert!(
                    matches!(
                        &err,
                        XsactError::Xml(xsact_xml::XmlError::MismatchedTag { open, close, .. })
                            if open == "shop" && close == "oops"
                    ),
                    "{workers} workers, round {round}: {err}"
                );
            }
        }
    }

    #[test]
    fn ingest_in_order_keeps_item_order_and_stops_each_worker_at_its_failure() {
        for workers in [0, 1, 2, 3, 8, 64] {
            let all: Result<Vec<usize>, usize> =
                ingest_in_order((0..10).collect(), workers, |i: usize| Ok(i * i));
            assert_eq!(all, Ok((0..10).map(|i| i * i).collect()), "{workers} workers");
            let failing: Result<Vec<usize>, usize> =
                ingest_in_order((0..10).collect(), workers, |i: usize| {
                    if i == 4 || i == 7 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                });
            assert_eq!(failing, Err(4), "{workers} workers");
            let empty: Result<Vec<usize>, usize> = ingest_in_order(Vec::new(), workers, Ok);
            assert_eq!(empty, Ok(Vec::new()));
        }
    }
}
