//! Regenerates `REPRODUCTION.md`, the paper's §5 as this repository
//! reproduces it: every figure and table priced under §4.1's model, each
//! with the paper's claim and a computed verdict per shape.
//!
//! ```sh
//! cargo run --release -p tasm-bench --bin reproduce           # every figure → REPRODUCTION.md
//! cargo run --release -p tasm-bench --bin reproduce fig7 fig9 # those figures, stdout only
//! ```
//!
//! `TASM_BENCH_SCALE=0.25` runs a quick pass. The figures also go to
//! stdout, the same bytes from run to run at one scale; wall times go only
//! to the file's header and to stderr.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use tasm_bench::{render, scale, FIGURES};
use tasm_core::{CostModel, EncodeModel, TasmConfig};

fn minutes(d: Duration) -> String {
    format!("{} min {:02} s", d.as_secs() / 60, d.as_secs() % 60)
}

/// The header: the command, the scale, the prices and the run's wall time.
fn header(scale: f64, walls: &[(&str, Duration)], total: Duration) -> String {
    let cfg = TasmConfig::default();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "# Reproducing the paper's evaluation (§5)\n\n\
         Generated by `cargo run --release -p tasm-bench --bin reproduce` at scale {scale} \
         (`TASM_BENCH_SCALE`); do not edit by hand.\n\n\
         ## Benchmarking strategy\n\n\
         - **Priced, not timed.** A query costs §4.1's `C = β·P + γ·T` over the samples `P` \
         and tile chunks `T` that the read plan `Tasm::query` runs would decode without a \
         cache, counted by `Tasm::price` with no decode. A re-tile costs its decode under the \
         same model plus its encoded samples at the rate `R(s, L)` is estimated with. These \
         are the prices the layout policy decides with, so one scale gives the same tables \
         byte for byte; no column is a wall time.\n\
         - **Stale prices.** β = {:.1} ns/sample, γ = {:.1} µs/tile chunk and encode \
         {:.1} ns/sample, `CostModel::CALIBRATED` and `EncodeModel::CALIBRATED`, fitted on an \
         earlier codec; the \
         `fit_cost_model` harness measures today's. Re-pricing them is a diff against this \
         file.\n\
         - **Stores.** No decoded-GOP cache (a cache hit is decode work not counted); \
         otherwise the default config: 1-second GOPs and SOTs at 30 fps, QP 28, η = {}, \
         α = {}.\n\
         - **Shapes, not milliseconds.** Each figure quotes the paper's claim and computes a \
         verdict for each shape it names. Prices are this CPU codec's at scaled-down \
         resolutions, not the paper's GPU decode times.\n\n\
         ## Run\n\n\
         Wall time on {threads} hardware threads (advisory; nothing below depends on it):\n\n\
         | figure | wall time |\n|---|---|\n",
        CostModel::CALIBRATED.beta * 1e9,
        CostModel::CALIBRATED.gamma * 1e6,
        EncodeModel::CALIBRATED.seconds_per_sample * 1e9,
        cfg.eta,
        tasm_core::ALPHA,
    );
    for (name, wall) in walls {
        let _ = writeln!(out, "| `{name}` | {} |", minutes(*wall));
    }
    let _ = writeln!(out, "| total | {} |\n", minutes(total));
    out
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| FIGURES.iter().all(|(f, _)| f != n)) {
        let known: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        eprintln!("unknown figure '{bad}'; figures: {}", known.join(", "));
        std::process::exit(2);
    }
    let scale = scale();
    let started = Instant::now();
    let (mut figures, mut walls) = (Vec::new(), Vec::new());
    for (name, build) in FIGURES {
        if names.is_empty() || names.iter().any(|n| n == name) {
            let t0 = Instant::now();
            figures.push(build(scale));
            walls.push((name, t0.elapsed()));
            eprintln!("[reproduce] {name}: {}", minutes(t0.elapsed()));
        }
    }
    let body = render(&figures);
    print!("{body}");
    if names.is_empty() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../REPRODUCTION.md");
        let doc = header(scale, &walls, started.elapsed()) + &body;
        std::fs::write(&path, doc).expect("write REPRODUCTION.md");
        eprintln!("[reproduce] wrote {}", path.display());
    }
}
