//! `ldpc-tool` — command-line front end for the CCSDS LDPC decoder system.
//!
//! ```text
//! ldpc-tool info
//! ldpc-tool encode --random --seed 7
//! ldpc-tool simulate --c2 --ebn0 4.0 --frames 100
//! ldpc-tool serve --port 7878
//! ldpc-tool plan --mbps 560
//! ldpc-tool tables
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

use args::ParsedArgs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match ParsedArgs::parse(raw, commands::COMMANDS) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", commands::help_text());
            return ExitCode::FAILURE;
        }
    };
    match commands::run(&parsed) {
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
