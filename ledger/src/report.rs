//! The command line and everything the ledger prints or writes.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1 [--report FILE.json]
//!                                                           one workload; last stdout line is the result object
//! ledger [--seed N] [--seconds S] [--traced] [--sets K] [--out FILE]
//!                                                           all workloads, each in a fresh child process
//! ledger check A.json B.json                                compare two result files against the bounds
//! ledger schema                                             print BENCHMARK.json
//! ledger glossary                                           print the metric glossary as table rows
//! ```

use crate::schema::{self, Metric, Values};
use crate::stats;
use crate::workloads::{self, Args, Outcome, Scratch};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const CAVEAT: &str = "tile files are served from the OS page cache and every store fsyncs through the production RealIo: latencies are this sandbox's, not a device's; end-to-end timings are at reference speed (divided by the slowdown of the calibration ticks run beside them, see src/pace.rs)";

/// `serde_json` (the vendored shim) works on `Serialize` types; this lets a
/// `Value` tree through in both directions.
struct Json(Value);

impl serde::Serialize for Json {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(self.0.clone())
    }
}

impl<'de> serde::Deserialize<'de> for Json {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_value().map(Json)
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

pub fn cli(argv: Vec<String>) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("check") => match &argv[1..] {
            [a, b] => check_files(Path::new(a), Path::new(b)),
            _ => Err("usage: ledger check A.json B.json".into()),
        },
        Some("schema") => {
            println!("{}", benchmark_json());
            Ok(())
        }
        Some("glossary") => {
            for m in schema::END_TO_END.iter().chain(&schema::PER_LAYER) {
                let better = if m.lower { "lower" } else { "higher" };
                println!("| `{}` | {} | {better} | {} |", m.name, m.unit, m.note);
            }
            Ok(())
        }
        _ => run(&argv),
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let (mut seed, mut seconds, mut sets) = (1u64, schema::RUN_SECONDS, 1usize);
    let (mut traced, mut workload, mut out, mut report) = (false, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => traced = value == "1",
            "--sets" => sets = value.parse().map_err(|_| bad())?,
            "--out" => out = Some(PathBuf::from(value)),
            "--report" => report = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if seconds == 0 || sets == 0 {
        return Err("--seconds and --sets must be at least 1".into());
    }
    match workload {
        Some(name) => one_workload(&name, seed, seconds, traced, report),
        None => all_workloads(seed, seconds, traced, sets, out),
    }
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

fn one_workload(
    name: &str,
    seed: u64,
    seconds: u32,
    traced: bool,
    report: Option<PathBuf>,
) -> Result<(), String> {
    let args = Args {
        seed,
        seconds,
        traced,
        spans_out: report.as_ref().map(|p| p.with_extension("spans.jsonl")),
    };
    let core = crate::procfs::pin_to_current_core();
    let scratch = Scratch::new();
    let outcome = match name {
        workloads::cold_select::NAME => workloads::cold_select::run(&args, scratch.path()),
        workloads::warm_serve::NAME => workloads::warm_serve::run(&args, scratch.path()),
        workloads::routed_evict::NAME => workloads::routed_evict::run(&args, scratch.path()),
        workloads::adaptive_ingest::NAME => workloads::adaptive_ingest::run(&args, scratch.path()),
        other => Err(format!("unknown workload {other}")),
    };
    drop(scratch);
    let outcome = outcome?;

    let values = if traced {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let pinned = core.map_or("not pinned".to_string(), |c| format!("pinned to core {c}"));
    eprintln!("{name}  seed {seed}  {seconds} s  {pinned}  ({CAVEAT})");
    for (metric, v) in values {
        eprintln!("  {metric:<36} {v:>16.4} {}", schema::unit_of(metric));
    }
    for (setting, v) in &outcome.config {
        eprintln!("  ({setting} = {v})");
    }
    print_table(name, &outcome.table);
    let result = obj(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", metrics_value(values)),
    ]);
    if let Some(path) = report {
        let full = obj(vec![
            ("workload", text(name)),
            ("result", result.clone()),
            ("config", config_value(&outcome)),
            ("layer_table", table_value(&outcome.table)),
        ]);
        write_json(&path, full)?;
    }
    println!(
        "{}",
        serde_json::to_string(&Json(result)).expect("serialize")
    );
    Ok(())
}

fn metrics_value(values: &Values) -> Value {
    Value::Object(
        values
            .iter()
            .map(|(name, v)| {
                let unit = text(schema::unit_of(name));
                (
                    name.to_string(),
                    obj(vec![("value", Value::F64(*v)), ("unit", unit)]),
                )
            })
            .collect(),
    )
}

fn config_value(o: &Outcome) -> Value {
    Value::Object(
        o.config
            .iter()
            .map(|(k, v)| (k.to_string(), text(v)))
            .collect(),
    )
}

fn table_value(table: &[(String, f64, f64)]) -> Value {
    Value::Array(
        table
            .iter()
            .map(|(name, us, share)| {
                obj(vec![
                    ("span", text(name)),
                    ("self_us_per_request", Value::F64(*us)),
                    ("share_of_end_to_end", Value::F64(*share)),
                ])
            })
            .collect(),
    )
}

fn print_table(workload: &str, table: &[(String, f64, f64)]) {
    if table.is_empty() {
        return;
    }
    eprintln!("{workload}: self time per traced request, by span");
    for (name, us, share) in table {
        eprintln!("  {name:<22} {us:>12.1} us {:>7.1} %", share * 100.0);
    }
}

fn write_json(path: &Path, v: Value) -> Result<(), String> {
    let body = serde_json::to_string_pretty(&Json(v)).expect("serialize");
    std::fs::write(path, body + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str::<Json>(&body)
        .map(|j| j.0)
        .map_err(|e| format!("parse {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// All workloads, each in a fresh child process
// ---------------------------------------------------------------------

/// Runs one workload in a re-exec'd child, so resident set, CPU ticks and
/// caches never leak from one workload into the next.
fn child(
    workload: &str,
    seed: u64,
    seconds: u32,
    trace: bool,
    dir: &Path,
) -> Result<Value, String> {
    let report = dir.join(format!("{workload}-{}.json", trace as u8));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--report")
        .arg(&report)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} failed ({status})"));
    }
    read_json(&report)
}

fn all_workloads(
    seed: u64,
    seconds: u32,
    traced: bool,
    sets: usize,
    out: Option<PathBuf>,
) -> Result<(), String> {
    let scratch = Scratch::new();
    let mut set_values = Vec::with_capacity(sets);
    // Sets are interleaved (W1 W2 W3 W4 W1 W2 W3 W4) so that slow drift of
    // the machine spreads over every workload alike.
    for _ in 0..sets {
        let mut results = Vec::new();
        for w in &schema::WORKLOADS {
            let mut entry = vec![(
                "end_to_end",
                child(w.name, seed, seconds, false, scratch.path())?,
            )];
            if traced {
                entry.push((
                    "per_layer",
                    child(w.name, seed, seconds, true, scratch.path())?,
                ));
            }
            results.push((w.name, obj(entry)));
        }
        set_values.push(obj(results));
    }
    drop(scratch);

    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let counts = schema::WORKLOADS
        .iter()
        .map(|w| (w.name, Value::U64((w.requests_per_second * seconds) as u64)))
        .collect();
    let self_check = (sets >= 2).then(|| check(&set_values[0], &set_values[1], true));
    let summary = obj(vec![
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds as u64)),
        ("timed_requests", obj(counts)),
        ("nproc", Value::U64(nproc as u64)),
        ("git_commit", text(&commit)),
        (
            "fsync_policy",
            text("RealIo: fsync every write and its parent directory"),
        ),
        ("caveat", text(CAVEAT)),
        ("sets", Value::Array(set_values)),
        (
            "self_check",
            self_check
                .as_ref()
                .map_or(Value::Null, |c| text(c.verdict())),
        ),
        ("claim", Value::Null),
    ]);
    if let Some(path) = &out {
        write_json(path, summary.clone())?;
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&Json(summary)).expect("serialize")
    );
    match self_check {
        Some(c) if !c.passed() => Err(format!("self-check: {}", c.verdict())),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// check: two result sets against the bounds
// ---------------------------------------------------------------------

struct Check {
    regressions: u32,
    unresolved: u32,
    inexact: u32,
}

impl Check {
    fn passed(&self) -> bool {
        self.regressions + self.unresolved + self.inexact == 0
    }

    fn verdict(&self) -> &'static str {
        match (self.regressions, self.unresolved + self.inexact) {
            (0, 0) => "pass",
            (0, _) => "unresolved",
            _ => "regression",
        }
    }
}

/// Every value of `metric` on `workload` in a file's sets.
fn values_of(sets: &[&Value], workload: &str, kind: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|set| {
            let m = set
                .field(workload)?
                .field(kind)?
                .field("result")?
                .field("metrics")?;
            number(m.field(metric)?.field("value")?)
        })
        .collect()
}

fn sets_of(file: &Value) -> Vec<&Value> {
    match file.field("sets") {
        Some(Value::Array(sets)) => sets.iter().collect(),
        _ => vec![file],
    }
}

/// Compares B against A, metric by metric. With `same_code` (the
/// repeatability self-check) a difference beyond the bound in either
/// direction is noise, so it reads *unresolved*, never *regression*.
fn check(a: &Value, b: &Value, same_code: bool) -> Check {
    let (sets_a, sets_b) = (sets_of(a), sets_of(b));
    let mut c = Check {
        regressions: 0,
        unresolved: 0,
        inexact: 0,
    };
    eprintln!(
        "{:<16} {:<28} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for w in &schema::WORKLOADS {
        for m in &schema::END_TO_END {
            let va = values_of(&sets_a, w.name, "end_to_end", m.name);
            let vb = values_of(&sets_b, w.name, "end_to_end", m.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let worse = if m.lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = [&va, &vb]
                .iter()
                .filter(|v| v.len() >= 2)
                .map(|v| stats::spread(v))
                .fold(0.0, f64::max);
            let verdict = if spread > m.bound || (same_code && worse.abs() > m.bound) {
                c.unresolved += 1;
                "unresolved"
            } else if worse > m.bound {
                c.regressions += 1;
                "REGRESSION"
            } else {
                "pass"
            };
            eprintln!(
                "{:<16} {:<28} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.0}%  {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        // Single-threaded workloads do identical work on identical inputs:
        // their counts must be byte-identical between runs of one commit.
        if !same_code || !schema::EXACT_WORKLOADS.contains(&w.name) {
            continue;
        }
        for (kind, name) in schema::EXACT_COUNTS {
            let va = values_of(&sets_a, w.name, kind, name);
            let vb = values_of(&sets_b, w.name, kind, name);
            let differs = |v: &f64| v.to_bits() != va[0].to_bits();
            if !va.is_empty() && va.iter().chain(&vb).any(differs) {
                c.inexact += 1;
                eprintln!(
                    "{:<16} {name:<28} count differs between runs: {va:?} vs {vb:?}",
                    w.name
                );
            }
        }
    }
    eprintln!("check: {}", c.verdict());
    c
}

fn check_files(a: &Path, b: &Path) -> Result<(), String> {
    let c = check(&read_json(a)?, &read_json(b)?, false);
    if c.passed() {
        Ok(())
    } else {
        Err(format!("check: {}", c.verdict()))
    }
}

// ---------------------------------------------------------------------
// schema: BENCHMARK.json
// ---------------------------------------------------------------------

fn metric_entry(m: &Metric, bounded: bool) -> Value {
    let mut pairs = vec![
        ("name", text(m.name)),
        ("unit", text(m.unit)),
        ("better", text(if m.lower { "lower" } else { "higher" })),
    ];
    if bounded {
        pairs.push(("bound", Value::F64(m.bound)));
    }
    obj(pairs)
}

fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
    ];
    let v = obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("ledger")])),
        ("run_seconds", Value::U64(schema::RUN_SECONDS as u64)),
        (
            "workloads",
            Value::Array(
                schema::WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                schema::END_TO_END
                    .iter()
                    .map(|m| metric_entry(m, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                schema::PER_LAYER
                    .iter()
                    .map(|m| metric_entry(m, false))
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&Json(v)).expect("serialize")
}
