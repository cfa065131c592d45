//! The untraced benchmark binary: every end-to-end number comes from here,
//! under the allocator the product ships with.

fn main() -> std::process::ExitCode {
    xsact_perf::run_main(false)
}
