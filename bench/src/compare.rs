//! The two comparison workloads: the paper's pipeline — ranked search,
//! feature extraction, instance build, DFS generation, table render —
//! timed in-process through the `Workbench` facade.
//!
//! `compare_warm` keeps the workbench's feature cache filled, so `core`
//! does the work; `compare_cold` clears it before every op (outside the
//! timed span), so extraction in `entity` does.

use crate::report::Report;
use crate::stream::{compare_candidates, OpStream};
use crate::trace::{SpanId, Tracer};
use crate::window::{Calibrator, Cpu, Window};
use crate::{procfs, Ctx};
use std::io;
use std::time::Instant;
use xsact::core::{dod_total, render_table, run_algorithm, DfsConfig, Instance};
use xsact::data::MoviesGen;
use xsact::{Algorithm, Workbench, XsactResult};

/// Results that enter one comparison (`take`), the table size bound `L`
/// and the differentiability threshold in percent.
const TAKE: usize = 16;
const CONFIG: DfsConfig = DfsConfig { size_bound: 8, threshold_pct: 10.0 };
const POOL: usize = 64;
const TRACED_OPS: usize = 2000;

/// What every op on one pool query must reproduce, per algorithm.
struct Reference {
    query: String,
    tables: [String; 4],
    dods: [u32; 4],
}

struct Fixture {
    wb: Workbench,
    pool: Vec<Reference>,
    bitmatrix_bytes: usize,
}

/// The op as a user of the facade writes it.
fn fused_op(wb: &Workbench, query: &str, algorithm: Algorithm) -> XsactResult<(u32, String)> {
    let outcome = wb
        .query(query)?
        .ranked(true)
        .take(TAKE)
        .size_bound(CONFIG.size_bound)
        .threshold(CONFIG.threshold_pct)
        .compare(algorithm)?;
    Ok((outcome.dod(), outcome.table()))
}

/// Builds the workbench over the Figure-4 movie dataset (400 movies, seed
/// 42), keeps the first `pool` genre+keyword queries with at least two
/// results, and runs every algorithm once on each: that is the reference
/// the timed ops are checked against, and it leaves the feature cache warm.
/// Returns the reasons the reference itself is wrong, if any.
fn build_fixture(doc: xsact::xml::Document, pool: usize) -> XsactResult<(Fixture, Vec<String>)> {
    let wb = Workbench::from_document(doc);
    let mut problems = Vec::new();
    let mut references = Vec::with_capacity(pool);
    let mut bitmatrix_bytes = 0;
    for query in compare_candidates() {
        if references.len() == pool {
            break;
        }
        let pipeline = wb
            .query(&query)?
            .ranked(true)
            .take(TAKE)
            .size_bound(CONFIG.size_bound)
            .threshold(CONFIG.threshold_pct);
        if pipeline.selection()?.len() < 2 {
            continue;
        }
        bitmatrix_bytes += pipeline.instance()?.bitmatrix_bytes();
        let mut tables: [String; 4] = Default::default();
        let mut dods = [0u32; 4];
        for (slot, algorithm) in Algorithm::ALL.into_iter().enumerate() {
            let outcome = pipeline.compare(algorithm)?;
            if outcome.dod() > outcome.dod_upper_bound() {
                problems.push(format!("{query:?} {}: DoD above its upper bound", algorithm.name()));
            }
            tables[slot] = outcome.table();
            dods[slot] = outcome.dod();
        }
        // `Algorithm::ALL` is snippet, greedy, single-swap, multi-swap.
        if dods[3] < dods[2] {
            problems
                .push(format!("{query:?}: multi-swap DoD {} < single-swap {}", dods[3], dods[2]));
        }
        references.push(Reference { query, tables, dods });
    }
    if references.len() < pool {
        problems.push(format!("only {} of {pool} pool queries have two results", references.len()));
    }
    Ok((Fixture { wb, pool: references, bitmatrix_bytes }, problems))
}

fn check_op(got: XsactResult<(u32, String)>, reference: &Reference, slot: usize) -> Option<String> {
    match got {
        Ok((dod, table)) if dod == reference.dods[slot] && table == reference.tables[slot] => None,
        Ok((dod, _)) => Some(format!(
            "{:?} {}: table or DoD {dod} differs from the reference (DoD {})",
            reference.query,
            Algorithm::ALL[slot].name(),
            reference.dods[slot]
        )),
        Err(e) => Some(format!("{:?} {}: {e}", reference.query, Algorithm::ALL[slot].name())),
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let cold = ctx.workload == "compare_cold";
    let pool = if ctx.quick { 8 } else { POOL };
    let doc = MoviesGen::default_gen().generate();
    let mut calibrator = Calibrator::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..ctx.setup_rounds() {
        let doc = doc.clone();
        let (fixture, seconds) = calibrator.time(|| build_fixture(doc, pool));
        built = Some(fixture.map_err(io::Error::other)?);
        setup_s.push(seconds);
    }
    let (mut fixture, problems) = built.expect("at least one set-up round");
    for problem in problems {
        report.violation(problem);
    }
    if ctx.inject_wrong_expectation {
        fixture.pool[0].tables.iter_mut().for_each(|t| t.push('!'));
    }
    let stream = OpStream::uniform(ctx.seed, fixture.pool.len());
    report.note(format!("stream hash {:016x} over the first 4096 keys", stream.hash(4096)));
    if ctx.traced {
        run_traced(ctx, &fixture, stream, cold, report)
    } else {
        run_untraced(ctx, &fixture, stream, cold, &setup_s, calibrator, report);
        Ok(())
    }
}

fn run_untraced(
    ctx: &Ctx,
    fixture: &Fixture,
    mut stream: OpStream,
    cold: bool,
    setup_s: &[f64],
    calibrator: Calibrator,
    report: &mut Report,
) {
    let me = std::process::id();
    let mut failed = 0u64;
    let mut window = Window::open(ctx.window(), Cpu::Process(me), calibrator);
    while window.running() {
        let slot = window.ops() % 4;
        let reference = &fixture.pool[stream.next_key()];
        if cold {
            fixture.wb.clear_cache();
        }
        let start = Instant::now();
        let got = fused_op(&fixture.wb, &reference.query, Algorithm::ALL[slot]);
        window.record(start.elapsed().as_secs_f64() * 1e3, 0.0);
        let problem = check_op(got, reference, slot);
        failed += u64::from(problem.is_some());
        report.check(problem);
    }
    let peak_rss_mb = procfs::peak_rss_mb(me).expect("own /proc entry");
    let cache = fixture.wb.cache_stats();
    report.note(format!(
        "feature cache since the last clear: {} hits, {} misses",
        cache.hits, cache.misses
    ));
    window.summarize(report, setup_s, failed, peak_rss_mb);
}

/// Runs `work` inside a span when a tracer is given, bare otherwise.
fn stage<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u32,
    parent: Option<SpanId>,
    work: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(tracer) => tracer.leaf(name, op, parent, work),
        None => work(),
    }
}

/// The op taken apart: each layer's public function called on its own, in
/// the order `QueryPipeline::compare` calls them. Returns the DoD, the
/// table and how many results were compared.
fn staged_op(
    wb: &Workbench,
    query: &str,
    algorithm: Algorithm,
    op: u32,
    mut tracer: Option<&mut Tracer>,
) -> XsactResult<(u32, String, usize)> {
    const DFS_SPANS: [&str; 4] =
        ["core.dfs_snippet", "core.dfs_greedy", "core.dfs_single_swap", "core.dfs_multi_swap"];
    let slot = Algorithm::ALL.iter().position(|a| *a == algorithm).expect("a timed algorithm");
    let root = tracer.as_mut().map(|t| t.begin("op", op, None));
    let tr = &mut tracer;
    let pipeline = stage(tr, "index.query_parse", op, root, || wb.query(query))?
        .ranked(true)
        .take(TAKE)
        .size_bound(CONFIG.size_bound)
        .threshold(CONFIG.threshold_pct);
    let selected = stage(tr, "index.search_top_k", op, root, || pipeline.selection())?;
    let features = stage(tr, "workbench.features", op, root, || pipeline.features())?;
    let instance =
        stage(tr, "core.instance_build", op, root, || Instance::build(&features, CONFIG));
    let (set, _) = stage(tr, DFS_SPANS[slot], op, root, || run_algorithm(&instance, algorithm));
    let dod = stage(tr, "core.dod_total", op, root, || dod_total(&instance, &set));
    let table = stage(tr, "core.render_table", op, root, || render_table(&instance, &set));
    if let (Some(tracer), Some(root)) = (tracer, root) {
        tracer.end(root);
    }
    Ok((dod, table, selected.len()))
}

fn run_traced(
    ctx: &Ctx,
    fixture: &Fixture,
    mut stream: OpStream,
    cold: bool,
    report: &mut Report,
) -> io::Result<()> {
    let ops = ctx.traced_ops(TRACED_OPS);
    let n = ops as f64;
    let keys: Vec<usize> = (0..ops).map(|_| stream.next_key()).collect();
    let wb = &fixture.wb;
    let mut tracer = Tracer::default();

    // 1. Stage by stage with spans (and, in this binary, allocation counts).
    //    The fixture's reference pass left the feature cache warm.
    let cache_before = wb.cache_stats();
    let mut results = 0usize;
    for (op, &key) in keys.iter().enumerate() {
        let (slot, reference) = (op % 4, &fixture.pool[key]);
        if cold {
            wb.clear_cache();
        }
        let got =
            staged_op(wb, &reference.query, Algorithm::ALL[slot], op as u32, Some(&mut tracer));
        results += got.as_ref().map_or(0, |g| g.2);
        report.check(check_op(got.map(|(dod, table, _)| (dod, table)), reference, slot));
    }
    // A clear resets the counters, so a cold run only sees its last op;
    // either way the share of lookups that hit is what is asked for.
    let cache = wb.cache_stats();
    let (hits, lookups) = if cold {
        (cache.hits, cache.lookups())
    } else {
        (cache.hits - cache_before.hits, cache.lookups() - cache_before.lookups())
    };

    // 2. The same stages without spans, and 3. the fused facade op: the
    //    first prices tracing, the second is the op the stages must add up to.
    let time_pass = |staged: bool| -> io::Result<f64> {
        let mut busy = 0.0;
        for (op, &key) in keys.iter().enumerate() {
            let (algorithm, query) = (Algorithm::ALL[op % 4], &fixture.pool[key].query);
            if cold {
                wb.clear_cache();
            }
            let start = Instant::now();
            if staged {
                std::hint::black_box(
                    staged_op(wb, query, algorithm, 0, None).map_err(io::Error::other)?,
                );
            } else {
                std::hint::black_box(fused_op(wb, query, algorithm).map_err(io::Error::other)?);
            }
            busy += start.elapsed().as_secs_f64();
        }
        Ok(busy * 1e6 / n)
    };
    let staged_us = time_pass(true)?;
    let fused_us = time_pass(false)?;

    let totals = tracer.totals();
    let per_op = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3 / n);
    let per_span =
        |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.spans as f64);
    let allocs = |prefix: &str| {
        totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_allocs)
            .sum::<u64>() as f64
            / n
    };
    let attributed_us = per_op("op") - totals["op"].self_ns as f64 / 1e3 / n;
    let features_us_per_result =
        totals["workbench.features"].total_ns as f64 / 1e3 / results.max(1) as f64;

    report.set("trace.ops", n);
    report.set("trace.op_us", fused_us);
    report.set("trace.unattributed_share", (fused_us - attributed_us) / fused_us);
    report.set("trace.overhead_share", (per_op("op") - staged_us) / staged_us);
    report.set("index.query_parse_us", per_op("index.query_parse"));
    report.set("index.search_top_k_us", per_op("index.search_top_k"));
    report.set("index.allocs_per_op", allocs("index."));
    report.set("workbench.feature_cache_hit_share", hits as f64 / lookups.max(1) as f64);
    if cold {
        report.set("entity.extract_us_per_result", features_us_per_result);
    } else {
        report.set("workbench.feature_hit_us_per_result", features_us_per_result);
    }
    report.set("entity.allocs_per_op", allocs("workbench.features"));
    report.set("core.instance_build_us", per_op("core.instance_build"));
    report.set("core.dfs_snippet_us", per_span("core.dfs_snippet"));
    report.set("core.dfs_greedy_us", per_span("core.dfs_greedy"));
    report.set("core.dfs_single_swap_us", per_span("core.dfs_single_swap"));
    report.set("core.dfs_multi_swap_us", per_span("core.dfs_multi_swap"));
    report.set("core.render_table_us", per_op("core.render_table"));
    report.set("core.allocs_per_op", allocs("core."));
    report.set("core.bitmatrix_bytes", fixture.bitmatrix_bytes as f64);
    let dod_sum = |slot: usize| fixture.pool.iter().map(|r| f64::from(r.dods[slot])).sum::<f64>();
    report.set("core.dod_sum_snippet", dod_sum(0));
    report.set("core.dod_sum_greedy", dod_sum(1));
    report.set("core.dod_sum_single_swap", dod_sum(2));
    report.set("core.dod_sum_multi_swap", dod_sum(3));
    crate::kernel_metrics(report);

    let core_us: f64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("core."))
        .map(|(_, t)| t.total_ns as f64 / 1e3 / n)
        .sum();
    report.note(format!(
        "op {fused_us:.1} us fused = parse {:.1} + search {:.1} + features {:.1} + core {core_us:.1} \
         + unattributed {:.1}; staged {:.1} us traced, {staged_us:.1} us untraced; {:.1} results per op",
        per_op("index.query_parse"),
        per_op("index.search_top_k"),
        per_op("workbench.features"),
        fused_us - attributed_us,
        per_op("op"),
        results as f64 / n
    ));
    crate::write_trace(ctx, &tracer)
}
