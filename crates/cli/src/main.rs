//! `megh` — the command-line front end of the Megh reproduction.
//!
//! See `megh help` for usage; the heavy lifting lives in the library
//! crates (`megh-sim`, `megh-core`, `megh-baselines`, `megh-trace`).

// No unsafe code anywhere in this crate.
#![forbid(unsafe_code)]

mod args;
mod commands;
mod flags;

use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = args::Args::parse(std::env::args().skip(1));
    match commands::dispatch(&parsed) {
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
