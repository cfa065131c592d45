//! The traced benchmark binary: the same code as `xsact-perf` plus a
//! counting global allocator, which is what yields the `allocs_per_op`
//! metrics. Only per-layer numbers come from here.

#[global_allocator]
static ALLOCATOR: xsact_perf::alloc::CountingAlloc = xsact_perf::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    xsact_perf::run_main(true)
}
