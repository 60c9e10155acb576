//! `tasm` — command-line front-end for the tile-based storage manager.
//!
//! Operates a persistent store directory (tile packs + semantic index):
//!
//! ```text
//! tasm ingest  --store S --name V --dataset visual-road-2k --seconds 4 [--seed N]
//! tasm detect  --store S --name V [--detector yolov3|yolov3-tiny] [--stride K]
//! tasm scan    --store S --name V --label car [--start F] [--end F]
//! tasm retile  --store S --name V --labels car,person
//! tasm observe --store S --name V --label car [--start F] [--end F]
//! tasm info    --store S [--name V]
//! tasm serve   --store S [--addr HOST:PORT]        # TCP query front-end
//! tasm client query|loadgen|stats|shutdown --addr HOST:PORT ...
//! ```
//!
//! Videos come from the synthetic corpus presets (this reproduction has no
//! external media decoder); everything else — encoding, the index, layout
//! optimization, scans — is the real storage manager operating on disk.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
