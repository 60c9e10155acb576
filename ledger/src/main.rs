//! The perf ledger: four named workloads over the whole stack, end-to-end
//! metrics with regression bounds, and a per-layer table measured from
//! outside each layer. See README.md beside this file.

mod corpus;
mod drive;
mod oracle;
mod pace;
mod probes;
mod procfs;
mod report;
mod requests;
mod rng;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    match report::cli(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
