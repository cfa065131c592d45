//! The [`Corpus`]: a sharded, multi-document workbench pool.
//!
//! One [`Workbench`] serves one document; a `Corpus`
//! serves many. It ingests XML documents (strings, generated fixtures, or
//! a directory of `.xml` files), builds one workbench per document, and
//! executes every query by **fanning out across shards in parallel** and
//! **k-way merging** the per-shard ranked lists into one deterministic
//! global ranking tagged with document ids:
//!
//! * the corpus owns one shard pool (`src/pool.rs`), built before its
//!   first document: the ingest, every query over several documents and
//!   every served page-cache miss run on its workers, and the caller
//!   computes the last shard itself;
//! * the documents are an immutable `Arc<[Workbench]>`, so each shard's
//!   job owns what it reads, and documents are assigned to shards
//!   round-robin (`ShardPlan`, `src/shard.rs`) — a pure function of
//!   document count and shard count;
//! * per-shard lists merge under a *total* order — score descending, then
//!   document id, then node id (document order) — so the merged ranking is
//!   byte-identical for any shard count.
//!
//! The top of the merged ranking — or the hits ticked by position with
//! [`CorpusQuery::select`] — can be compared *across documents*: the
//! corpus pulls each hit's features from its owning workbench (cached,
//! thread-safe) and builds one comparison table whose columns may come
//! from different documents. [`CorpusQuery`] is the one query builder; a
//! [`Workbench`] query is the same builder over one document
//! (`src/selection.rs`). This module holds what it runs: the one shard job
//! (fault sites, busy clock, search) and the one global merge. A served
//! page-cache miss runs them too, so serving is that query, not a copy
//! of it.
//!
//! ```
//! use xsact::corpus::Corpus;
//! use xsact::Algorithm;
//!
//! # fn main() -> Result<(), xsact::XsactError> {
//! let corpus = Corpus::synthetic_movies(4, 60, 42).with_shards(2);
//! let query = corpus.query("drama family")?.take(4);
//! let outcome = query.compare(Algorithm::MultiSwap)?;
//! let hits = query.selection()?;
//! assert!(hits.iter().any(|h| h.doc != hits[0].doc), "spans documents");
//! println!("{}", outcome.table());
//! # Ok(())
//! # }
//! ```

use crate::error::{XsactError, XsactResult};
use crate::fault::FaultPlan;
use crate::merge::k_way_merge;
use crate::pool::{or_raise, Job, ShardPanic, ShardPool};
use crate::shard::ShardPlan;
use crate::workbench::Workbench;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{self, AtomicU64};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsact_data::movies::{MovieGenConfig, MoviesGen};
use xsact_index::trace::TraceSink;
use xsact_index::{ExecutorStats, Query, RankedRoot, ScoredResult, SearchEngine, SearchResult};
use xsact_xml::{Document, NodeId};

pub use crate::selection::CorpusQuery;
pub use crate::shard::DocId;

/// The demo compares the first four ticked results; corpus queries default
/// to the same top-k.
pub const DEFAULT_TOP: usize = 4;

/// A sharded pool of per-document workbenches; see the module docs.
#[derive(Debug)]
pub struct Corpus {
    /// One workbench per document, indexed by [`DocId`] and named by its
    /// `name`; never changed after the ingest.
    pub(crate) docs: Arc<[Workbench]>,
    shards: usize,
    /// The workers every fan-out over this corpus runs on.
    pool: ShardPool,
}

impl Corpus {
    /// Parses and ingests `(name, xml)` pairs, in order, on every core.
    /// Fails with [`XsactError::Xml`] on the first malformed document.
    pub fn from_xml_strings<'a>(
        docs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> XsactResult<Corpus> {
        let docs: Vec<(String, String)> =
            docs.into_iter().map(|(name, xml)| (name.to_owned(), xml.to_owned())).collect();
        Corpus::ingest(docs, available_cores(), &to_stderr, |(name, xml), _, _| {
            Ok((name, Workbench::from_xml(&xml)?))
        })
    }

    /// Ingests every `*.xml` file of `dir` in **sorted filename order**
    /// (so document ids are stable across runs and machines), using the
    /// file stem as the document name. Files are read, parsed and indexed
    /// on every core; the error reported for a directory with several bad
    /// files is always the first in filename order. Fails with
    /// [`XsactError::EmptyCorpus`] when the directory holds no XML files.
    pub fn from_dir(dir: impl AsRef<Path>) -> XsactResult<Corpus> {
        Corpus::from_dir_impl(dir.as_ref(), None, available_cores(), &to_stderr)
    }

    /// Like [`from_dir`](Self::from_dir), but boots each document from its
    /// `.xidx` image in `index_dir` (`<stem>.xidx`) whenever the image was
    /// saved from exactly the XML file's current bytes — decoding the
    /// document and its index instead of parsing and indexing — and saves
    /// the image of any document it did have to parse, so each shard's
    /// cold start is paid once, not on every process launch.
    ///
    /// An image is keyed by a digest of its XML source: a stale (edited
    /// source), corrupt or old-version file is never trusted. The corpus
    /// parses, rebuilds and overwrites it after one warning on stderr
    /// naming the reason; several warnings come in filename order.
    pub fn from_dir_cached(
        dir: impl AsRef<Path>,
        index_dir: impl AsRef<Path>,
    ) -> XsactResult<Corpus> {
        fs::create_dir_all(index_dir.as_ref())?;
        Corpus::from_dir_impl(dir.as_ref(), Some(index_dir.as_ref()), available_cores(), &to_stderr)
    }

    /// `workers` is a parameter (not configuration) so the tests can pin
    /// that the ingest width never changes ids, names, rankings or
    /// warnings; `warn` so they can read the warnings a boot gives.
    fn from_dir_impl(
        dir: &Path,
        index_dir: Option<&Path>,
        workers: usize,
        warn: &dyn Fn(String),
    ) -> XsactResult<Corpus> {
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
        let index_dir = index_dir.map(Path::to_path_buf);
        Corpus::ingest(paths, workers, warn, move |path, buf, warnings| {
            ingest_file(&path, index_dir.as_deref(), buf, warnings)
        })
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
        Corpus::ingest((0..docs).collect(), workers, &to_stderr, move |i, _, _| {
            let cfg = MovieGenConfig {
                seed: seed + i as u64,
                movies: movies_per_doc,
                ..Default::default()
            };
            let wb = Workbench::from_document(MoviesGen::new(cfg).generate());
            Ok::<_, Infallible>((format!("movies-{i:02}"), wb))
        })
        .unwrap_or_else(|never| match never {})
    }

    /// The one constructor: a fresh pool runs `build` over `items` as
    /// `workers` jobs (see [`ingest_in_order`]) and the corpus keeps it,
    /// with the default shard count (the machine's available parallelism).
    fn ingest<T: Send + 'static, E: Send + 'static>(
        items: Vec<T>,
        workers: usize,
        warn: &dyn Fn(String),
        build: impl Fn(T, &mut Vec<u8>, &mut Vec<String>) -> Result<(String, Workbench), E>
            + Send
            + Sync
            + 'static,
    ) -> Result<Corpus, E> {
        let pool = ShardPool::new();
        let built = ingest_in_order(&pool, items, workers, warn, build)?;
        let docs = built
            .into_iter()
            .map(|(name, mut wb)| {
                wb.name = name.into();
                wb
            })
            .collect();
        Ok(Corpus { docs, shards: available_cores(), pool })
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

    /// Sets the shard count in place. The pool grows to it on the first
    /// query that needs the workers.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of ingested documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The workbench serving a document, for layer-level access.
    pub fn workbench(&self, id: DocId) -> &Workbench {
        &self.docs[id.index()]
    }

    /// Starts a corpus-wide query, ranked and bounded to [`DEFAULT_TOP`]
    /// until told otherwise. Fails with [`XsactError::EmptyCorpus`] /
    /// [`XsactError::EmptyQuery`] before any shard runs.
    pub fn query(&self, text: &str) -> XsactResult<CorpusQuery<'_>> {
        self.query_impl(text, None)
    }

    /// [`query`](Self::query) with a stage trace attached from the start:
    /// the `parse` span, one `shard N` span per shard in shard order (so
    /// skew across shards is visible), and the global `merge` span all
    /// land in `sink`. Tracing never changes the ranked bytes (pinned by
    /// `tests/obs.rs`).
    pub fn query_traced<'a>(
        &'a self,
        text: &str,
        sink: &'a TraceSink,
    ) -> XsactResult<CorpusQuery<'a>> {
        self.query_impl(text, Some(sink))
    }

    fn query_impl<'a>(
        &'a self,
        text: &str,
        trace: Option<&'a TraceSink>,
    ) -> XsactResult<CorpusQuery<'a>> {
        if self.is_empty() {
            return Err(XsactError::EmptyCorpus);
        }
        let query = CorpusQuery::new(&self.docs, Some(self), text, trace)?;
        Ok(query.ranked(true).take(DEFAULT_TOP))
    }

    /// The number of shards a query will actually use: empty shards are
    /// not run, so this is `min(shards, len)`.
    pub fn effective_shards(&self) -> usize {
        self.shards.min(self.docs.len()).max(1)
    }

    /// Runs [`search_shard`] for every shard of the round-robin partition
    /// over [`effective_shards`](Self::effective_shards), each on its pool
    /// worker and the last on this thread, and returns the outcomes in
    /// shard order. A query re-raises a panicked shard; a served miss
    /// answers it `ShardFailed`.
    pub(crate) fn run_shards(
        &self,
        query: Query,
        k: Option<usize>,
        faults: &FaultPlan,
    ) -> Vec<Result<ShardRun, ShardPanic>> {
        let query = Arc::new(query);
        let slices = ShardPlan::new(self.effective_shards()).partition(self.len());
        let jobs = slices
            .into_iter()
            .enumerate()
            .map(|(shard, slice)| -> Job<ShardRun> {
                let (docs, query, faults) = (self.docs.clone(), query.clone(), faults.clone());
                Box::new(move || search_shard(&docs, &query, k, shard, &slice, &faults, None))
            })
            .collect();
        self.pool.run(jobs)
    }
}

/// The default width of both query fan-out (shards) and ingest (workers).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `ingest` over `items` as `min(workers, items)` jobs on `pool` and
/// returns the outputs **in item order**, whatever order they finished in
/// — so document ids, names and rankings never depend on the ingest width.
/// Documents are independent at boot, so they spread over the same
/// round-robin [`ShardPlan`] partition queries use; the last job runs on
/// the calling thread, so `n` workers are `n` runnable threads and one
/// worker is the exact serial loop.
///
/// Each job owns one byte buffer and hands it to every `ingest` call it
/// makes: an image read into it reuses the memory the job's previous
/// document already faulted in. Each item's warnings travel back with its
/// result, and `warn` receives them here, in item order.
///
/// A job stops at its first failure. Since each job walks its items in
/// ascending order, the lowest-indexed failure overall is always reached,
/// and it is the error returned — not whichever came first on the clock.
fn ingest_in_order<T, R, E>(
    pool: &ShardPool,
    items: Vec<T>,
    workers: usize,
    warn: &dyn Fn(String),
    ingest: impl Fn(T, &mut Vec<u8>, &mut Vec<String>) -> Result<R, E> + Send + Sync + 'static,
) -> Result<Vec<R>, E>
where
    T: Send + 'static,
    R: Send + 'static,
    E: Send + 'static,
{
    let workers = workers.clamp(1, items.len().max(1));
    let mut parts: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    let plan = ShardPlan::new(workers);
    for (i, item) in items.into_iter().enumerate() {
        parts[plan.shard_of(DocId(i as u32))].push((i, item));
    }
    let ingest = Arc::new(ingest);
    let jobs: Vec<Job<Vec<Ingested<R, E>>>> = parts
        .into_iter()
        .map(|part| {
            let ingest = Arc::clone(&ingest);
            Box::new(move || {
                let mut out = Vec::with_capacity(part.len());
                let mut buf = Vec::new();
                for (i, item) in part {
                    let mut warnings = Vec::new();
                    let result = ingest(item, &mut buf, &mut warnings);
                    let failed = result.is_err();
                    out.push((i, warnings, result));
                    if failed {
                        break;
                    }
                }
                out
            }) as Job<_>
        })
        .collect();
    let mut done: Vec<_> = pool.run(jobs).into_iter().flat_map(or_raise).collect();
    done.sort_unstable_by_key(|&(i, ..)| i);
    // In index order a failure precedes every item its job skipped, so
    // collecting stops at the error before it could meet a gap, and no
    // later item's warning is given.
    done.into_iter()
        .map(|(_, warnings, result)| {
            warnings.into_iter().for_each(warn);
            result
        })
        .collect()
}

/// One item through an ingest job: its index, its warnings, its result.
type Ingested<R, E> = (usize, Vec<String>, Result<R, E>);

/// Where a boot's warnings go outside the tests.
fn to_stderr(warning: String) {
    eprintln!("{warning}");
}

/// One document's boot: the document and index decoded from the `.xidx`
/// image saved from exactly this XML, or else read → parse → build → save
/// the image. `buf` is the ingest job's read buffer: the XML is digested
/// and the image read through it; a warning goes to `warnings`. Returns the
/// document's name and workbench.
fn ingest_file(
    path: &Path,
    index_dir: Option<&Path>,
    buf: &mut Vec<u8>,
    warnings: &mut Vec<String>,
) -> XsactResult<(String, Workbench)> {
    let name = path
        .file_stem()
        .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned());
    if let Some(index_dir) = index_dir {
        let index_path = index_dir.join(format!("{name}.xidx"));
        // Degrade loudly but gracefully: one warning per unusable file
        // saying *why* (unreadable, edited XML, checksum mismatch, old
        // version, corrupt section), then parse and resave so the next
        // launch loads cleanly. No file yet (cold start) is no warning.
        let mut unusable = |e: io::Error| {
            warnings.push(format!(
                "xsact: index cache {} unusable ({}); rebuilding from XML",
                index_path.display(),
                XsactError::from(e)
            ))
        };
        match fs::File::open(&index_path) {
            // The XML is read only to be digested, never parsed.
            Ok(mut image) => {
                let digest = digest_file(path, buf)?;
                match xsact_index::load_image(&mut image, Some(digest), buf) {
                    Ok((doc, index)) => {
                        let engine = SearchEngine::from_parts(doc, index);
                        return Ok((name, Workbench::from_engine(engine)));
                    }
                    Err(e) => unusable(e),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => unusable(e),
        }
        let wb = Workbench::from_document(parse_file(path)?);
        // Best-effort cache write: the corpus is already built in memory, so
        // an unwritable index_dir (read-only, disk full) must not fail
        // ingestion — the next load just rebuilds again.
        let _ = save_index_atomic(&wb, &index_path);
        return Ok((name, wb));
    }
    Ok((name, Workbench::from_document(parse_file(path)?)))
}

/// Parses an XML file. The parser copies what it keeps into the document's
/// arena, so the source text is dropped on return — before the index is
/// built and the structure summary inferred, not beside them.
fn parse_file(path: &Path) -> XsactResult<Document> {
    Ok(xsact_xml::parse_document(&fs::read_to_string(path)?)?)
}

/// The digest [`xsact_xml::parse_document`] records of a file's bytes,
/// streamed through the first 64 KiB of `buf`: the image load that follows
/// reads over them, so no copy of the source is held while its image is
/// decoded.
fn digest_file(path: &Path, buf: &mut Vec<u8>) -> io::Result<u64> {
    let mut file = fs::File::open(path)?;
    let mut hasher = xsact_xml::WordHasher::new();
    buf.resize(64 << 10, 0);
    loop {
        match file.read(buf) {
            Ok(0) => return Ok(hasher.finish()),
            Ok(n) => hasher.write(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Crash-safe index save: the bytes go to a temp file next to `path`, are
/// fsynced, and only then atomically renamed over `path`. A crash (or
/// `kill -9`) at any point leaves either the previous file or no file
/// under the final name — never a torn one — and the image's checksum
/// trailer catches anything the filesystem still manages to mangle. The
/// temp file is removed on failure; its name carries the process id and a
/// per-process counter, so concurrent saves of one path (two servers
/// booting on one `--index-dir`) never write into each other's file.
pub fn save_index_atomic(wb: &Workbench, path: &Path) -> XsactResult<()> {
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

/// One entry of a query's list: a search result plus the document it came
/// from and, in a ranked list, its relevance score.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusHit {
    /// Owning document: its id among the queried documents (`DocId(0)`
    /// for a workbench's own query).
    pub doc: DocId,
    /// The owning document's display name (shared, not per-hit allocated).
    pub doc_name: Arc<str>,
    /// The result subtree inside that document. Its root is the last key
    /// of the merge's total order.
    pub result: SearchResult,
    /// Relevance score and its components; `None` in a document-order
    /// list, which scores nothing.
    pub score: Option<ScoredResult>,
}

impl CorpusHit {
    /// The merge's total order: score descending, then document id, then
    /// the root's node id; unscored hits tie on the score, so a
    /// document-order list is `(DocId, NodeId)` order. Depends only on the
    /// hit itself — never on shard count or thread timing — which is what
    /// makes every list deterministic.
    fn ranking_order(&self, other: &CorpusHit) -> Ordering {
        let score = |hit: &CorpusHit| hit.score.as_ref().map_or(0.0, |s| s.score);
        ranking_order(
            (score(self), self.doc, self.result.root),
            (score(other), other.doc, other.result.root),
        )
    }
}

/// The merged, deterministic list of one query.
#[derive(Debug, Clone)]
pub struct CorpusRanking {
    /// The hits in the query's order: best first when ranked.
    pub hits: Vec<CorpusHit>,
}

impl CorpusRanking {
    /// Renders the top `limit` entries, one line per hit — the corpus
    /// analogue of the demo's result page.
    pub fn render(&self, limit: usize) -> String {
        let shown = &self.hits[..self.hits.len().min(limit)];
        // The fixed text of a line is 19 bytes; 32 also covers the rank
        // and the score, so the one buffer rarely grows.
        let mut out = String::with_capacity(
            shown.iter().map(|hit| 32 + hit.result.label.len() + hit.doc_name.len()).sum(),
        );
        for (i, hit) in shown.iter().enumerate() {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "  [{:>2}] {}  @{}", i + 1, hit.result.label, hit.doc_name);
            if let Some(score) = &hit.score {
                let _ = write!(out, "  (score {:.3})", score.score);
            }
            out.push('\n');
        }
        out
    }
}

/// What one shard's search returns: its list, the executor work it cost
/// (summed over its documents), how long it searched, and how many
/// documents its slice held.
pub(crate) struct ShardRun {
    pub(crate) hits: Vec<CorpusHit>,
    pub(crate) stats: ExecutorStats,
    /// The search alone: an injected stall comes before the clock starts.
    pub(crate) busy: Duration,
    pub(crate) docs: usize,
}

/// The shard job — the only code that searches a shard, whoever asks: a
/// served miss and a query over several documents run it on the corpus's
/// pool ([`Corpus::run_shards`]), a one-document query inline
/// ([`search_inline`]). It first consults the `slow_execute` and
/// `shard_panic` sites of `faults`, then starts its clock.
///
/// Ranked (`k` is `Some`), it ranks each document of the shard's
/// round-robin slice of `docs` through the streaming executor bounded by
/// `k`, merges the per-document lists under the ranking's total order,
/// truncates to `k`, and labels what is left. In document order (`None`),
/// each document lists every SLCA result, unscored, and the lists are
/// concatenated in id order — the merge's total order when nothing is
/// scored. Since every list comes from *this* function over *the same*
/// [`ShardPlan`] partition, serving can never change result bytes.
/// `trace` receives each document's search stages.
fn search_shard(
    docs: &[Workbench],
    query: &Query,
    k: Option<usize>,
    shard: usize,
    slice: &[usize],
    faults: &FaultPlan,
    trace: Option<&TraceSink>,
) -> ShardRun {
    if let Some(millis) = faults.should_fire("slow_execute", shard) {
        std::thread::sleep(Duration::from_millis(millis));
    }
    if faults.should_fire("shard_panic", shard).is_some() {
        panic!("injected shard_panic fault (shard {shard})");
    }
    let start = Instant::now();
    let mut stats = ExecutorStats::default();
    let hits = match k {
        None => {
            let mut hits = Vec::new();
            for &d in slice {
                let (wb, doc) = (&docs[d], DocId(d as u32));
                let (results, doc_stats) = wb.engine().search_all(query, trace);
                stats += doc_stats;
                let hit =
                    |result| CorpusHit { doc, doc_name: wb.name.clone(), result, score: None };
                hits.extend(results.into_iter().map(hit));
            }
            hits
        }
        Some(k) => {
            let per_doc = slice
                .iter()
                .map(|&d| {
                    let (wb, doc) = (&docs[d], DocId(d as u32));
                    let (roots, doc_stats) = wb.engine().search_top_k(query, k, trace);
                    stats += doc_stats;
                    roots.into_iter().map(|ranked| ShardCandidate { wb, doc, ranked }).collect()
                })
                .collect();
            // The shard-local merge: keep `k` of the per-document lists,
            // and label only those.
            let mut merged = k_way_merge(per_doc, ShardCandidate::ranking_order);
            merged.truncate(k);
            merged.into_iter().map(ShardCandidate::into_hit).collect()
        }
    };
    ShardRun { hits, stats, busy: start.elapsed(), docs: slice.len() }
}

/// A one-document query's only shard, on the calling thread: the shard
/// job over `docs[0]` with no fault armed, its search stages traced into
/// `trace`.
pub(crate) fn search_inline(
    docs: &[Workbench],
    query: &Query,
    k: Option<usize>,
    trace: Option<&TraceSink>,
) -> ShardRun {
    search_shard(docs, query, k, 0, &[0], &FaultPlan::disarmed(), trace)
}

/// The global merge, shared by a query and a served miss: sums the runs'
/// executor work, k-way merges their lists under the ranking's total
/// order and truncates to `k`.
pub(crate) fn merge_runs(runs: Vec<ShardRun>, k: usize) -> (CorpusRanking, ExecutorStats) {
    let stats = runs.iter().map(|run| run.stats).fold(ExecutorStats::default(), |a, b| a + b);
    let lists = runs.into_iter().map(|run| run.hits).collect();
    let mut hits = k_way_merge(lists, CorpusHit::ranking_order);
    hits.truncate(k);
    (CorpusRanking { hits }, stats)
}

/// One ranked root on its way through a shard's merge. A shard ranks every
/// one of its documents to depth `k` and keeps `k` in total, so most
/// candidates are dropped by the merge; only a survivor becomes a
/// [`CorpusHit`] and is given its display label.
struct ShardCandidate<'a> {
    wb: &'a Workbench,
    doc: DocId,
    ranked: RankedRoot,
}

impl ShardCandidate<'_> {
    /// [`CorpusHit::ranking_order`] before labelling.
    fn ranking_order(&self, other: &ShardCandidate<'_>) -> Ordering {
        let key = |c: &ShardCandidate<'_>| (c.ranked.score.score, c.doc, c.ranked.score.root);
        ranking_order(key(self), key(other))
    }

    fn into_hit(self) -> CorpusHit {
        let ShardCandidate { wb, doc, ranked } = self;
        CorpusHit {
            doc,
            doc_name: wb.name.clone(),
            result: wb.engine().result_for(&ranked),
            score: Some(ranked.score),
        }
    }
}

/// The merge's total order on its keys `(score, document id, root)`:
/// score descending, then document id, then the root's node id — document
/// order within a document.
fn ranking_order(a: (f64, DocId, NodeId), b: (f64, DocId, NodeId)) -> Ordering {
    b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)).then_with(|| a.2.cmp(&b.2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_core::Algorithm;

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
        assert_eq!(&*corpus.docs[0].name, "store-a");
        assert_eq!(&*corpus.docs[2].name, "store-c");
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
        let empty = Corpus::from_xml_strings([]).unwrap();
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
        let query = corpus.query("gps").unwrap().take(2);
        let outcome = query.compare(Algorithm::MultiSwap).unwrap();
        let labels = outcome.labels().join(" | ");
        assert!(labels.contains("(store-a)") && labels.contains("(store-b)"), "{labels}");
        let hits = query.selection().unwrap();
        assert!(hits[0].doc != hits[1].doc);
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
                    corpus.docs[id.index()].name,
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
            let plain =
                Corpus::from_dir_impl(&xml_dir, None, workers, &to_stderr).unwrap().with_shards(2);
            assert_eq!(observable(&plain), want, "{workers} workers, no cache");
            let cache = tmp.0.join(format!("index-{workers}"));
            fs::create_dir_all(&cache).unwrap();
            for pass in ["cold", "warm"] {
                let cached = Corpus::from_dir_impl(&xml_dir, Some(&cache), workers, &to_stderr)
                    .unwrap()
                    .with_shards(2);
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

    /// A boot of `dir` on one worker with the index cache `cache`, and the
    /// warnings it gave.
    fn boot_cached(dir: &Path, cache: &Path) -> (Corpus, Vec<String>) {
        let warnings = std::cell::RefCell::new(Vec::new());
        let corpus =
            Corpus::from_dir_impl(dir, Some(cache), 1, &|w| warnings.borrow_mut().push(w)).unwrap();
        (corpus, warnings.into_inner())
    }

    /// What a fresh parse of `xml` answers, against what `corpus` (one
    /// document) answers: the document itself and three rankings.
    fn assert_answers_like_a_fresh_parse(corpus: &Corpus, xml: &str, what: &str) {
        let fresh = Corpus::from_xml_strings([("shop", xml)]).unwrap();
        let doc = corpus.workbench(DocId(0)).document();
        assert!(doc == fresh.workbench(DocId(0)).document(), "{what}: document");
        for text in ["gps", "zeppelin", "product unit"] {
            let render = |c: &Corpus| c.query(text).map(|q| q.ranking().render(10)).ok();
            assert_eq!(render(corpus), render(&fresh), "{what}: {text}");
        }
    }

    /// An image keyed by a digest could outlive the text it was parsed
    /// from if a builder changed the document after the parse. Every
    /// builder clears the digest, so a mutated document's image does not
    /// warm-load in place of its XML: the boot warns once, answers like a
    /// fresh parse (no "zeppelin" anywhere), and resaves an image the next
    /// boot loads without a word.
    #[test]
    fn a_mutated_document_never_warm_loads_against_its_source() {
        let xml = "<shop><product><name>gps unit</name><kind>GPS</kind></product><tag/></shop>";
        for what in ["add_leaf", "set_attr"] {
            let tmp = TempDir::new(&format!("mutated-{what}"));
            let (dir, cache) = (tmp.0.join("xml"), tmp.0.join("index"));
            fs::create_dir_all(&dir).unwrap();
            fs::create_dir_all(&cache).unwrap();
            fs::write(dir.join("shop.xml"), xml).unwrap();
            let mut doc = xsact_xml::parse_document(xml).unwrap();
            assert!(doc.source_digest().is_some());
            if what == "add_leaf" {
                doc.add_leaf(doc.root(), "name", "zeppelin");
            } else {
                let last = xsact_xml::NodeId::from_index(doc.len() as u32 - 1);
                doc.set_attr(last, "note", "zeppelin");
            }
            assert_eq!(doc.source_digest(), None, "{what} keeps the digest");
            save_index_atomic(&Workbench::from_document(doc), &cache.join("shop.xidx")).unwrap();

            let (corpus, warnings) = boot_cached(&dir, &cache);
            assert_eq!(warnings.len(), 1, "{what}: {warnings:?}");
            assert!(warnings[0].contains("source digest mismatch"), "{what}: {warnings:?}");
            assert_answers_like_a_fresh_parse(&corpus, xml, what);
            let (again, warnings) = boot_cached(&dir, &cache);
            assert_eq!(warnings, Vec::<String>::new(), "{what}: the resaved image loads");
            assert_answers_like_a_fresh_parse(&again, xml, what);
        }
    }

    /// An XML file edited after its image was saved — a changed value, or
    /// only an appended comment the parse drops — rebuilds with exactly
    /// one warning and answers like a fresh parse of the new text.
    #[test]
    fn an_edited_source_rebuilds_with_one_warning() {
        let xml = "<shop><product><name>gps unit</name><kind>GPS</kind></product></shop>";
        for (what, edited) in [
            ("changed value", xml.replace("gps unit", "zeppelin unit")),
            ("appended comment", format!("{xml}<!-- reviewed -->")),
        ] {
            let tmp = TempDir::new(&format!("edited-{}", what.replace(' ', "-")));
            let (dir, cache) = (tmp.0.join("xml"), tmp.0.join("index"));
            fs::create_dir_all(&dir).unwrap();
            fs::create_dir_all(&cache).unwrap();
            fs::write(dir.join("shop.xml"), xml).unwrap();
            let (_, warnings) = boot_cached(&dir, &cache);
            assert_eq!(warnings, Vec::<String>::new(), "{what}: a cold boot is quiet");
            assert!(cache.join("shop.xidx").exists(), "{what}: the cold boot saved its image");
            let (warm, warnings) = boot_cached(&dir, &cache);
            assert_eq!(warnings, Vec::<String>::new(), "{what}: a warm boot is quiet");
            assert_answers_like_a_fresh_parse(&warm, xml, what);

            fs::write(dir.join("shop.xml"), &edited).unwrap();
            let (rebuilt, warnings) = boot_cached(&dir, &cache);
            assert_eq!(warnings.len(), 1, "{what}: {warnings:?}");
            assert!(warnings[0].contains("source digest mismatch"), "{what}: {warnings:?}");
            assert_answers_like_a_fresh_parse(&rebuilt, &edited, what);
            let (warm, warnings) = boot_cached(&dir, &cache);
            assert_eq!(warnings, Vec::<String>::new(), "{what}: the resaved image loads");
            assert_answers_like_a_fresh_parse(&warm, &edited, what);
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
                let err = Corpus::from_dir_impl(&tmp.0, None, workers, &to_stderr).unwrap_err();
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

    /// Each worker hands one buffer to every item it ingests, in order:
    /// what an item leaves in it, the worker's next item finds.
    #[test]
    fn each_ingest_worker_hands_one_buffer_to_all_its_items() {
        let pool = ShardPool::new();
        for workers in [1, 2, 3] {
            let seen: Result<Vec<usize>, Infallible> =
                ingest_in_order(&pool, (0..10).collect(), workers, &to_stderr, |_, buf, _| {
                    buf.push(0);
                    Ok(buf.len())
                });
            assert_eq!(seen, Ok((0..10).map(|i| i / workers + 1).collect()), "{workers} workers");
        }
    }

    /// A long image, a corrupt one, then a short one, all through one
    /// buffer, load exactly as each does through a fresh buffer: no byte a
    /// longer image left past the new length is ever read.
    #[test]
    fn one_buffer_loads_each_image_as_a_fresh_one_does() {
        let image = |movies: usize| {
            let cfg = MovieGenConfig { seed: 5, movies, ..Default::default() };
            let mut bytes = Vec::new();
            Workbench::from_document(MoviesGen::new(cfg).generate())
                .save_index(&mut bytes)
                .unwrap();
            bytes
        };
        let long = image(40);
        let mut corrupt = long[..long.len() * 3 / 4].to_vec();
        corrupt.extend_from_slice(&long[long.len() - 8..]);
        let short = image(2);
        assert!(short.len() < corrupt.len() && corrupt.len() < long.len());
        let outcome = |bytes: &[u8], buf: &mut Vec<u8>| match xsact_index::load_image(
            &mut &bytes[..],
            None,
            buf,
        ) {
            Ok((doc, index)) => {
                let mut resaved = Vec::new();
                xsact_index::save_image(&doc, &index, &mut resaved).unwrap();
                Ok(resaved)
            }
            Err(e) => Err(e.to_string()),
        };
        let mut buf = Vec::new();
        for (what, bytes) in [("long", &long), ("corrupt", &corrupt), ("short", &short)] {
            let fresh = outcome(bytes, &mut Vec::new());
            assert_eq!(outcome(bytes, &mut buf), fresh, "{what}");
            assert_eq!(fresh.is_ok(), what != "corrupt", "{what}: {fresh:?}");
        }
    }

    /// An index directory of an earlier format (v5, then v6): every image
    /// is refused with the typed version error — one warning per file, at
    /// any width — and resaved, so the next boot loads warm without a word.
    #[test]
    fn a_v5_index_dir_warns_once_per_file_then_loads_warm() {
        let tmp = TempDir::new("v5");
        let (dir, cache) = (tmp.0.join("xml"), tmp.0.join("index"));
        fs::create_dir_all(&dir).unwrap();
        fs::create_dir_all(&cache).unwrap();
        let fleet = Corpus::synthetic_movies_impl(3, 10, 21, 1);
        for i in 0..fleet.len() {
            let doc = fleet.workbench(DocId(i as u32)).document();
            let xml = xsact_xml::writer::write_subtree(doc, doc.root());
            fs::write(dir.join(format!("doc-{i}.xml")), xml).unwrap();
        }
        let boot = |workers| {
            let warnings = std::cell::RefCell::new(Vec::new());
            let corpus = Corpus::from_dir_impl(&dir, Some(&cache), workers, &|w| {
                warnings.borrow_mut().push(w)
            })
            .unwrap()
            .with_shards(2);
            (observable(&corpus), warnings.into_inner())
        };
        let (want, warnings) = boot(2);
        assert_eq!(warnings, Vec::<String>::new(), "a cold boot is quiet");
        for version in [5u32, 6] {
            for entry in fs::read_dir(&cache).unwrap() {
                let path = entry.unwrap().path();
                let mut bytes = fs::read(&path).unwrap();
                bytes[4..8].copy_from_slice(&version.to_le_bytes());
                fs::write(&path, bytes).unwrap();
            }
            let (rebuilt, warnings) = boot(2);
            assert_eq!(rebuilt, want);
            assert_eq!(warnings.len(), fleet.len(), "{warnings:?}");
            for warning in &warnings {
                let want = format!("unsupported index version {version}");
                assert!(warning.contains(&want), "{warning}");
            }
            let (warm, warnings) = boot(2);
            assert_eq!(warm, want);
            assert_eq!(warnings, Vec::<String>::new(), "the resaved images load");
        }
    }

    #[test]
    fn ingest_in_order_keeps_item_order_and_stops_each_worker_at_its_failure() {
        let pool = ShardPool::new();
        for workers in [0, 1, 2, 3, 8, 64] {
            let run = |items: Vec<usize>, fail: &'static [usize]| {
                let warned = std::cell::RefCell::new(Vec::new());
                let out: Result<Vec<usize>, usize> = ingest_in_order(
                    &pool,
                    items,
                    workers,
                    &|w| warned.borrow_mut().push(w),
                    move |i, _, warnings| {
                        warnings.push(format!("item {i}"));
                        if fail.contains(&i) {
                            Err(i)
                        } else {
                            Ok(i * i)
                        }
                    },
                );
                (out, warned.into_inner())
            };
            let warnings = |n: usize| (0..n).map(|i| format!("item {i}")).collect::<Vec<_>>();
            let (all, warned) = run((0..10).collect(), &[]);
            assert_eq!(all, Ok((0..10).map(|i| i * i).collect()), "{workers} workers");
            assert_eq!(warned, warnings(10), "{workers} workers: warnings in item order");
            let (failing, warned) = run((0..10).collect(), &[4, 7]);
            assert_eq!(failing, Err(4), "{workers} workers");
            assert_eq!(warned, warnings(5), "{workers} workers: none after the failure");
            assert_eq!(run(Vec::new(), &[]), (Ok(Vec::new()), Vec::new()));
        }
    }

    /// Three stale images, ingested on 1, 2 and 8 workers: one warning per
    /// image, in filename order at every width — also on two workers, where
    /// the first job ingests the first and the third file.
    #[test]
    fn stale_image_warnings_come_in_filename_order_at_every_width() {
        let tmp = TempDir::new("warn-order");
        let (dir, cache) = (tmp.0.join("xml"), tmp.0.join("index"));
        fs::create_dir_all(&dir).unwrap();
        fs::create_dir_all(&cache).unwrap();
        let names = ["a-shop", "b-shop", "c-shop"];
        for name in names {
            let xml = format!("<shop><product><name>{name}</name></product></shop>");
            fs::write(dir.join(format!("{name}.xml")), xml).unwrap();
            fs::write(cache.join(format!("{name}.xidx")), b"stale").unwrap();
        }
        for workers in [1, 2, 8] {
            let warnings = std::cell::RefCell::new(Vec::new());
            Corpus::from_dir_impl(&dir, Some(&cache), workers, &|w| {
                warnings.borrow_mut().push(w);
            })
            .unwrap();
            let warnings = warnings.into_inner();
            assert_eq!(warnings.len(), 3, "{workers} workers: {warnings:?}");
            for (warning, name) in warnings.iter().zip(names) {
                assert!(warning.contains(&format!("{name}.xidx")), "{workers}: {warnings:?}");
            }
            for name in names {
                fs::write(cache.join(format!("{name}.xidx")), b"stale").unwrap();
            }
        }
    }
}
