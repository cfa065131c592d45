//! `xsact` — terminal demo of the XSACT system (VLDB 2010).
//!
//! The analogue of the paper's web demo (Figure 5): pick a dataset, issue a
//! keyword query, select results, and get a comparison table whose
//! Differentiation Feature Sets maximise the degree of differentiation.
//!
//! ```text
//! cargo run -p xsact-cli -- --dataset figure1 --bound 7 --stats
//! cargo run -p xsact-cli -- --dataset movies --query "war soldier" --algorithm multi-swap
//! cargo run -p xsact-cli -- corpus --dir datasets/ --query "drama family" --shards 4
//! ```

#![forbid(unsafe_code)]

mod app;
mod args;

use std::process::ExitCode;

fn main() -> ExitCode {
    let command = match args::parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        args::Command::Single(args) => app::run(&args),
        args::Command::Corpus(args) => app::run_corpus(&args),
        args::Command::Serve(args) => app::run_serve(&args),
        args::Command::Client(args) => app::run_client(&args),
        args::Command::Help(usage) => Ok(usage),
    };
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
