//! The two start workloads: how long until a freshly spawned
//! `xsact serve --dir … --index-dir …` answers its first query.
//!
//! `cold_start` deletes the index directory before every boot, so each one
//! parses the XML, builds every index and saves it; `warm_start` leaves the
//! directory populated, so each boot parses the XML and loads the `.xidx`
//! files instead. The difference between the two is what a persisted index
//! buys.

use crate::report::Report;
use crate::stream::POOL_SEED;
use crate::trace::Tracer;
use crate::window::{Calibrator, Cpu, Window};
use crate::wire::ServerChild;
use crate::{procfs, stats, Ctx};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use xsact::corpus::DEFAULT_TOP;
use xsact::data::{MovieGenConfig, MoviesGen};
use xsact::xml::{parse_document, write_document, Tokenizer, WriteOptions};
use xsact::{save_index_atomic, Corpus, CorpusServer, ServeConfig, Workbench};

const SHARDS: usize = 2;
const QUERY: &str = "drama family";
/// Boots the traced run takes apart (and process boots it times).
const TRACED_ROUNDS: usize = 3;

/// `(XML files, movies per file)` of the fixture.
fn fixture(ctx: &Ctx) -> (usize, usize) {
    if ctx.quick {
        (2, 60)
    } else {
        (8, 500)
    }
}

struct Dirs {
    root: PathBuf,
    xml: PathBuf,
    index: PathBuf,
}

impl Dirs {
    /// A scratch directory of this run's own under the output directory.
    fn new(ctx: &Ctx) -> Dirs {
        let root = ctx.out_dir.join(format!("work-{}-{}", ctx.workload, std::process::id()));
        Dirs { xml: root.join("xml"), index: root.join("index"), root }
    }

    fn wipe_index(&self) -> io::Result<()> {
        remove_dir_if_present(&self.index)
    }
}

fn remove_dir_if_present(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Writes the XML fixture afresh; returns its size in bytes.
fn write_fixture(ctx: &Ctx, dirs: &Dirs) -> io::Result<u64> {
    let (files, movies) = fixture(ctx);
    remove_dir_if_present(&dirs.root)?;
    fs::create_dir_all(&dirs.xml)?;
    let mut bytes = 0;
    for i in 0..files {
        let config =
            MovieGenConfig { seed: POOL_SEED + i as u64, movies, ..MovieGenConfig::default() };
        let xml = write_document(&MoviesGen::new(config).generate(), &WriteOptions::compact());
        bytes += xml.len() as u64;
        fs::write(dirs.xml.join(format!("movies-{i:02}.xml")), xml)?;
    }
    Ok(bytes)
}

fn server_args(ctx: &Ctx, dirs: &Dirs) -> Vec<String> {
    let mut args = vec![
        "--dir".to_owned(),
        dirs.xml.display().to_string(),
        "--index-dir".to_owned(),
        dirs.index.display().to_string(),
        "--shards".to_owned(),
        SHARDS.to_string(),
    ];
    if ctx.mux {
        args.push("--mux".to_owned());
    }
    args
}

/// What one boot cost.
struct Boot {
    latency_ms: f64,
    page: Vec<u8>,
    cpu_ms: f64,
    peak_rss_mb: f64,
}

/// The op: spawn the server, wait for its `listening on` line, connect,
/// ask the first query. The clock stops when the page has arrived;
/// shutdown is not timed.
fn boot(ctx: &Ctx, dirs: &Dirs) -> io::Result<Boot> {
    let args = server_args(ctx, dirs);
    let start = Instant::now();
    let (server, _) = ServerChild::spawn(&ctx.xsact_bin, &args)?;
    let mut client = server.connect()?;
    let page = client.query(QUERY)?.to_vec();
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = procfs::cpu_ms(server.pid())?;
    let peak_rss_mb = procfs::peak_rss_mb(server.pid())?;
    server.shutdown(&mut client)?;
    Ok(Boot { latency_ms, page, cpu_ms, peak_rss_mb })
}

/// The page every boot must answer the first query with, computed
/// in-process from the same files without any index cache.
fn expected_page(dirs: &Dirs) -> io::Result<Vec<u8>> {
    let corpus = Corpus::from_dir(&dirs.xml).map_err(io::Error::other)?.with_shards(SHARDS);
    let pipeline = corpus.query(QUERY).map_err(io::Error::other)?;
    let ranking = pipeline.ranking();
    let shown = ranking.hits.len().min(DEFAULT_TOP);
    Ok(format!("OK {shown}\n{}", ranking.render(DEFAULT_TOP)).into_bytes())
}

fn check_page(got: &[u8], want: &[u8]) -> Option<String> {
    (got != want).then(|| {
        format!(
            "first QUERY {QUERY:?} answered {:?}, expected {:?}",
            String::from_utf8_lossy(got),
            String::from_utf8_lossy(want)
        )
    })
}

fn index_files(dirs: &Dirs) -> io::Result<(usize, u64)> {
    let mut files = 0;
    let mut bytes = 0;
    for entry in fs::read_dir(&dirs.index)? {
        let entry = entry?;
        if entry.path().extension().is_some_and(|ext| ext == "xidx") {
            files += 1;
            bytes += entry.metadata()?.len();
        }
    }
    Ok((files, bytes))
}

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let cold = ctx.workload == "cold_start";
    let dirs = Dirs::new(ctx);

    // Set-up: write the XML files and compute the page every boot must
    // answer with; the warm workload also boots once so the index directory
    // is populated the way the product populates it.
    let mut calibrator = Calibrator::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..ctx.setup_rounds() {
        let (round, seconds) = calibrator.time(|| {
            let xml_bytes = write_fixture(ctx, &dirs)?;
            if !cold {
                boot(ctx, &dirs)?;
            }
            io::Result::Ok((xml_bytes, expected_page(&dirs)?))
        });
        ready = Some(round?);
        setup_s.push(seconds);
    }
    let (xml_bytes, mut want) = ready.expect("at least one set-up round");
    if ctx.inject_wrong_expectation {
        want[0] ^= 1;
    }
    report.note(format!("fixture: {} XML files, {xml_bytes} bytes", fixture(ctx).0));
    if ctx.traced {
        return run_traced(ctx, &dirs, cold, xml_bytes, &want, report);
    }

    let mut peak_rss_mb: f64 = 0.0;
    let mut failed = 0u64;
    let mut window = Window::open(ctx.window(), Cpu::PerOp, calibrator);
    while window.running() {
        if cold {
            dirs.wipe_index()?;
        }
        let boot = boot(ctx, &dirs)?;
        window.record(boot.latency_ms, boot.cpu_ms);
        peak_rss_mb = peak_rss_mb.max(boot.peak_rss_mb);
        let problem = check_page(&boot.page, &want);
        failed += u64::from(problem.is_some());
        report.check(problem);
    }
    let (files, _) = index_files(&dirs)?;
    if files != fixture(ctx).0 {
        report.violation(format!("{files} .xidx files for {} documents", fixture(ctx).0));
    }
    window.summarize(report, &setup_s, failed, peak_rss_mb);
    Ok(())
}

/// Sorted paths of the fixture's XML files — the order `Corpus::from_dir`
/// ingests them in.
fn xml_files(dirs: &Dirs) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> =
        fs::read_dir(&dirs.xml)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    paths.sort();
    Ok(paths)
}

fn xidx_path(dirs: &Dirs, xml: &Path) -> PathBuf {
    let stem = xml.file_stem().expect("fixture files have stems").to_string_lossy();
    dirs.index.join(format!("{stem}.xidx"))
}

/// One boot taken apart in-process: the public calls `Corpus::from_dir_cached`
/// makes per document, each under its own span. Returns the node count.
fn staged_boot(dirs: &Dirs, cold: bool, op: u32, tracer: &mut Tracer) -> io::Result<usize> {
    if cold {
        dirs.wipe_index()?;
    }
    fs::create_dir_all(&dirs.index)?;
    let root = tracer.begin("op", op, None);
    let mut nodes = 0;
    for path in xml_files(dirs)? {
        let text = tracer.leaf("xml.read", op, Some(root), || fs::read_to_string(&path))?;
        let doc = tracer
            .leaf("xml.parse", op, Some(root), || parse_document(&text))
            .map_err(io::Error::other)?;
        nodes += doc.len();
        let index_path = xidx_path(dirs, &path);
        if cold {
            let wb = tracer.leaf("index.build", op, Some(root), || Workbench::from_document(doc));
            tracer
                .leaf("index.save", op, Some(root), || save_index_atomic(&wb, &index_path))
                .map_err(io::Error::other)?;
        } else {
            tracer
                .leaf("index.load", op, Some(root), || {
                    let mut file = fs::File::open(&index_path)?;
                    Workbench::from_persisted_index(doc, &mut file).map_err(io::Error::other)
                })
                .map(drop)?;
        }
    }
    tracer.end(root);
    // Tokenising is part of `parse_document`; a pass of its own, outside the
    // op, says how much of the parse it is.
    for path in xml_files(dirs)? {
        let text = fs::read_to_string(&path)?;
        let tokens = tracer.leaf("xml.tokenize", op, None, || Tokenizer::new(&text).count());
        std::hint::black_box(tokens);
    }
    Ok(nodes)
}

fn run_traced(
    ctx: &Ctx,
    dirs: &Dirs,
    cold: bool,
    xml_bytes: u64,
    want: &[u8],
    report: &mut Report,
) -> io::Result<()> {
    let rounds = if ctx.quick { 1 } else { TRACED_ROUNDS };
    let docs = fixture(ctx).0 as f64;
    let n = rounds as f64;

    // 1. The op itself: process boots, checked like the untraced run's.
    let mut boot_ms = Vec::new();
    for _ in 0..rounds {
        if cold {
            dirs.wipe_index()?;
        }
        let boot = boot(ctx, dirs)?;
        boot_ms.push(boot.latency_ms);
        report.check(check_page(&boot.page, want));
    }
    let boot_ms = stats::mean(&boot_ms);
    let (_, xidx_bytes) = index_files(dirs)?;

    // 2. The same boot in-process, fused: `from_dir_cached`, then the first
    //    query through a session.
    let mut fused_ms = 0.0;
    let mut query_ms = 0.0;
    for _ in 0..rounds {
        if cold {
            dirs.wipe_index()?;
        }
        let start = Instant::now();
        let corpus = Corpus::from_dir_cached(&dirs.xml, &dirs.index)
            .map_err(io::Error::other)?
            .with_shards(SHARDS);
        fused_ms += start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let server = CorpusServer::start(Arc::new(corpus), ServeConfig::default());
        let answer = server.session().query(QUERY).map_err(io::Error::other)?;
        let shown = answer.ranking.hits.len().min(DEFAULT_TOP);
        let page = format!("OK {shown}\n{}", answer.ranking.render(DEFAULT_TOP));
        query_ms += start.elapsed().as_secs_f64() * 1e3;
        report.check(check_page(page.as_bytes(), want));
    }
    let (fused_ms, query_ms) = (fused_ms / n, query_ms / n);

    // 3. Stage by stage with spans; the fused boot above is its untraced
    //    counterpart.
    let mut tracer = Tracer::default();
    let mut nodes = 0;
    for op in 0..rounds {
        nodes = staged_boot(dirs, cold, op as u32, &mut tracer)?;
    }
    let totals = tracer.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6 / n);
    let staged_ms = ms("op");
    let attributed_ms = staged_ms - totals["op"].self_ns as f64 / 1e6 / n + query_ms;
    let mb = xml_bytes as f64 / 1e6;

    report.set("trace.ops", n);
    report.set("trace.op_us", boot_ms * 1e3);
    report.set("trace.unattributed_share", (boot_ms - attributed_ms) / boot_ms);
    report.set("trace.overhead_share", (staged_ms - fused_ms) / fused_ms);
    report.set("cli.boot_overhead_ms", boot_ms - fused_ms - query_ms);
    report.set("xml.tokenize_mb_per_s", mb / (ms("xml.tokenize") / 1e3));
    report.set("xml.parse_mb_per_s", mb / (ms("xml.parse") / 1e3));
    report.set("xml.nodes_per_doc", nodes as f64 / docs);
    report.set("index.build_ms_per_doc", ms("index.build") / docs);
    report.set("index.save_ms_per_doc", ms("index.save") / docs);
    report.set("index.load_ms_per_doc", ms("index.load") / docs);
    report.set("index.xidx_bytes_per_xml_byte", xidx_bytes as f64 / xml_bytes as f64);
    crate::kernel_metrics(report);
    report.note(format!(
        "op {boot_ms:.1} ms process boot = read {:.1} + parse {:.1} + build {:.1} + save {:.1} + load {:.1} \
         + first query {query_ms:.1} + unattributed {:.1}; fused in-process boot {fused_ms:.1} ms, \
         staged {staged_ms:.1} ms; tokenizing alone {:.1} ms",
        ms("xml.read"),
        ms("xml.parse"),
        ms("index.build"),
        ms("index.save"),
        ms("index.load"),
        boot_ms - attributed_ms,
        ms("xml.tokenize"),
    ));
    crate::write_trace(ctx, &tracer)
}
