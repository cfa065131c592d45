//! `xsact-perf` — the seeded benchmark of XSACT.
//!
//! One invocation runs one workload in its own process:
//!
//! ```text
//! xsact-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`, binary `xsact-perf`) it measures the end-to-end
//! metrics from outside the program — over the wire against the unmodified
//! `xsact serve` binary, or by timing calls into public functions — for
//! `--seconds` seconds. Traced (`--trace 1`, binary `xsact-perf-traced`,
//! which installs the counting allocator) it replays the same seeded inputs
//! stage by stage for the per-layer metrics. Either way every output is
//! checked and the last line of stdout is the result object the driver
//! reads. `README.md` documents metrics, workloads and the pinned surface.

pub mod alloc;
pub mod compare;
pub mod defs;
pub mod procfs;
pub mod report;
pub mod rng;
pub mod search;
pub mod start;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod window;
pub mod wire;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use xsact::prelude::*;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny fixtures and op counts, for `check.sh`; numbers mean nothing.
    pub quick: bool,
    /// Runner-only switch (not in `BENCHMARK.json`): serve with the
    /// poll-multiplexed front end instead of the default one.
    pub mux: bool,
    /// Test-only: corrupt one expected output, so the run must fail.
    pub inject_wrong_expectation: bool,
    /// The product's CLI binary, built by `run.sh`.
    pub xsact_bin: PathBuf,
    /// Where traces and scratch fixtures go (`bench/out`, gitignored).
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A fixed op count of the traced run, cut down in quick mode.
    pub fn traced_ops(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(8)
        } else {
            full
        }
    }

    /// How many times set-up is repeated for the `setup_s` median (once
    /// where nothing reports it).
    pub fn setup_rounds(&self) -> usize {
        if self.quick || self.traced {
            1
        } else {
            5
        }
    }
}

const USAGE: &str =
    "usage: xsact-perf --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
                  [--quick] [--mux] [--xsact-bin <path>] [--out-dir <path>]
       xsact-perf --describe      print BENCHMARK.json
       xsact-perf --list          print the workload names";

enum Cli {
    Run(Box<Ctx>),
    Describe,
    List,
}

fn parse_args(argv: impl Iterator<Item = String>, traced_binary: bool) -> Result<Cli, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: defs::RUN_SECONDS as f64,
        traced: traced_binary,
        quick: false,
        mux: false,
        inject_wrong_expectation: false,
        xsact_bin: PathBuf::from("target/release/xsact"),
        out_dir: PathBuf::from("bench/out"),
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--describe" => return Ok(Cli::Describe),
            "--list" => return Ok(Cli::List),
            "--workload" => ctx.workload = value("a workload name")?,
            "--seed" => {
                ctx.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                ctx.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                ctx.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--quick" => ctx.quick = true,
            "--mux" => ctx.mux = true,
            "--inject-wrong-expectation" => ctx.inject_wrong_expectation = true,
            "--xsact-bin" => ctx.xsact_bin = PathBuf::from(value("a path")?),
            "--out-dir" => ctx.out_dir = PathBuf::from(value("a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !defs::WORKLOADS.iter().any(|w| w.name == ctx.workload) {
        return Err(format!("unknown workload {:?}; try --list", ctx.workload));
    }
    if ctx.traced != traced_binary {
        // The allocator is chosen at link time, so each mode has its binary.
        return Err(format!(
            "--trace {} needs the {} binary (run.sh picks it)",
            u8::from(ctx.traced),
            if ctx.traced { "xsact-perf-traced" } else { "xsact-perf" }
        ));
    }
    Ok(Cli::Run(Box::new(ctx)))
}

/// Machine, toolchain and run identity, as a JSON object: every output
/// carries it so numbers from different boxes are never compared blind.
fn fingerprint(ctx: &Ctx) -> String {
    // `run.sh` exports both; a binary run by hand says "unknown".
    let env = |name: &str| {
        let value = std::env::var(name).unwrap_or_else(|_| "unknown".into());
        value.replace(['"', '\\'], "'")
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"kernel_level\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"mux\": {}}}",
        xsact_kernel::active_level().name(),
        env("XSACT_PERF_RUSTC"),
        env("XSACT_PERF_COMMIT"),
        ctx.seed,
        ctx.seconds,
        ctx.quick,
        ctx.mux
    )
}

/// Nothing is timed unless the paper's worked example still reproduces:
/// the Figure-1 fixture must give DoD = 5 under multi-swap.
fn check_paper_example() -> Result<(), String> {
    let wb = Workbench::from_document(xsact::data::fixtures::figure1_document());
    let dod = wb
        .query(xsact::data::fixtures::PAPER_QUERY)
        .and_then(|q| {
            q.semantics(ResultSemantics::Slca)
                .take(4)
                .size_bound(xsact::data::fixtures::TABLE_BOUND)
                .threshold(10.0)
                .compare(Algorithm::MultiSwap)
        })
        .map(|outcome| outcome.dod())
        .map_err(|e| format!("Figure-1 comparison failed: {e}"))?;
    if dod == 5 {
        Ok(())
    } else {
        Err(format!("Figure-1 fixture gives DoD {dod} under multi-swap, the paper says 5"))
    }
}

/// The entry point of both binaries; `traced_binary` says which one this is.
pub fn run_main(traced_binary: bool) -> ExitCode {
    let ctx = match parse_args(std::env::args().skip(1), traced_binary) {
        Ok(Cli::Describe) => {
            print!("{}", defs::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Ok(Cli::List) => {
            for w in defs::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Run(ctx)) => *ctx,
        Err(message) => {
            eprintln!("xsact-perf: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(message) = check_paper_example() {
        eprintln!("xsact-perf: {message}");
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let outcome = match ctx.workload.as_str() {
        "search_uncached" | "search_cached" | "search_churn" => search::run(&ctx, &mut report),
        "compare_warm" | "compare_cold" => compare::run(&ctx, &mut report),
        "cold_start" | "warm_start" => start::run(&ctx, &mut report),
        other => unreachable!("workload {other} passed validation"),
    };
    if let Err(e) = outcome {
        // A run that could not finish prints no result line.
        eprintln!("xsact-perf: {} aborted: {e}", ctx.workload);
        return ExitCode::FAILURE;
    }
    report.print(&ctx.workload, ctx.traced, &fingerprint(&ctx));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fixed-input microbenchmarks of the two SIMD kernels every workload leans
/// on (the DoD bit matrix and the scorer's range count): 64 KiB buffers,
/// median of nine batches. Independent of the workload, reported by every
/// traced run so a kernel change is visible next to the layer it feeds.
pub fn kernel_metrics(report: &mut Report) {
    const WORDS: usize = 8192; // 64 KiB of u64
    const VALUES: usize = 16384; // 64 KiB of u32
    let mut rng = rng::Rng::new(stream::POOL_SEED);
    let a: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let b: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let values: Vec<u32> = (0..VALUES).map(|_| rng.next_u64() as u32).collect();
    let batch_ns = |work: &dyn Fn() -> u32| {
        let batches: Vec<f64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..200 {
                    std::hint::black_box(work());
                }
                start.elapsed().as_nanos() as f64 / 200.0
            })
            .collect();
        stats::median(&batches)
    };
    use std::hint::black_box;
    let and2 = batch_ns(&|| xsact_kernel::and2_count(black_box(&a), black_box(&b)));
    let range =
        batch_ns(&|| xsact_kernel::count_in_range_u32(black_box(&values), 1 << 30, 3 << 30));
    report.set("kernel.and2_count_ns_per_kword", and2 / (WORDS as f64 / 1000.0));
    report.set("kernel.count_in_range_ns_per_kval", range / (VALUES as f64 / 1000.0));
}

/// Writes the run's spans to `<out-dir>/trace-<workload>.json`.
pub fn write_trace(ctx: &Ctx, tracer: &trace::Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(&ctx.out_dir)?;
    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
    std::fs::write(path, tracer.to_json(&ctx.workload, &fingerprint(ctx)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = parse_args(
            args(&["--workload", "search_churn", "--seed", "7", "--seconds", "8", "--trace", "0"]),
            false,
        );
        let Ok(Cli::Run(ctx)) = cli else { panic!("expected a run") };
        assert_eq!(
            (ctx.workload.as_str(), ctx.seed, ctx.seconds, ctx.traced),
            ("search_churn", 7, 8.0, false)
        );
        assert!(!ctx.quick && !ctx.mux);
    }

    #[test]
    fn bad_arguments_are_refused() {
        let refuse = |list: &[&str], traced| parse_args(args(list), traced).err().expect("refused");
        assert!(refuse(&["--workload", "nope"], false).contains("unknown workload"));
        assert!(refuse(&["--workload", "cold_start", "--trace", "1"], false)
            .contains("xsact-perf-traced"));
        assert!(refuse(&["--workload", "cold_start", "--trace", "0"], true)
            .contains("xsact-perf binary"));
        assert!(
            refuse(&["--workload", "cold_start", "--seconds", "0"], false).contains("--seconds")
        );
        assert!(refuse(&["--workload"], false).contains("needs"));
        assert!(refuse(&["--frobnicate"], false).contains("unknown argument"));
    }

    #[test]
    fn the_paper_example_reproduces() {
        check_paper_example().unwrap();
    }
}
