//! `tasm` — command-line front-end for the tile-based storage manager.
//!
//! Operates a persistent store directory (tile packs + semantic index),
//! serves it over TCP, and administers a cluster of such servers; `tasm
//! help` lists every command. `USAGE` and the dispatch are here, the
//! commands over a store directory in `commands`, those over a network in
//! `remote`, and every report they print in `report`.
//!
//! Videos come from the synthetic corpus presets (this reproduction has no
//! external media decoder); everything else — encoding, the index, layout
//! optimization, scans — is the real storage manager operating on disk.

#![forbid(unsafe_code)]

mod args;
mod commands;
mod remote;
mod report;

use args::Args;
use commands::CmdResult;
use std::process::ExitCode;
use tasm_data::Dataset;

const USAGE: &str = "\
tasm — tile-based storage manager for video analytics

USAGE:
  tasm ingest  --store DIR --name NAME --dataset PRESET --seconds N [--seed N]
  tasm detect  --store DIR --name NAME [--detector yolov3|yolov3-tiny] [--stride K]
  tasm scan    --store DIR --name NAME --label LABEL [--start F] [--end F] [--repeat N]
  tasm query   --store DIR --name NAME --label LABEL [--start F] [--end F]
               [--roi x,y,w,h] [--stride N] [--limit K]
               [--mode pixels|count|exists] [--repeat N] [--as-of EPOCH]
               [--explain]
  tasm retile  --store DIR --name NAME --labels L1,L2
  tasm observe --store DIR --name NAME --label LABEL [--start F] [--end F]
  tasm workload --store DIR --name NAME [--workload 1|2|3|4] [--queries N]
                [--concurrency N] [--queue-depth N] [--retile off|regret|more]
                [--query-frames N] [--seed N]
  tasm info    --store DIR [--name NAME]
  tasm stats   --store DIR [--name NAME] [--storage] [--json]
  tasm fsck    --store DIR [--name NAME]
  tasm presets
  tasm serve   --store DIR [--addr HOST:PORT] [--max-connections N]
               [--max-inflight N] [--concurrency N] [--queue-depth N]
               [--retile off|regret|more] [--backup ADDR[,ADDR]]
               [--metrics-addr HOST:PORT] [--slow-query-ms N]
               [--log-level debug|info|warn|error] [--log-json]
  tasm cluster init --map FILE --nodes id=HOST:PORT[,id=HOST:PORT...]
               [--replicas R] [--pin VIDEO=NODE[+NODE...]]
  tasm cluster show --map FILE [--video NAME]
  tasm route   --map FILE [--addr HOST:PORT] [--max-connections N]
               [--max-inflight N] [--shard-timeout-ms N] [--health-ms N]
               [--fail-threshold N] [--route-workers N]
               [--metrics-addr HOST:PORT]
               [--log-level debug|info|warn|error] [--log-json]
  tasm rebalance --map FILE --video NAME --to NODE [--timeout-ms N]
  tasm client query    --addr HOST:PORT --name NAME --label LABEL
                       [--start F] [--end F] [--roi x,y,w,h] [--stride N]
                       [--limit K] [--mode pixels|count|exists] [--as-of EPOCH]
                       [--explain]
  tasm client loadgen  --addr HOST:PORT --name NAME --label LABEL
                       [--requests N] [--connections N] [--frames N]
                       [--window N] [--reconnects N] [query flags as above]
  tasm client stats    --addr HOST:PORT [--json]
  tasm client shutdown --addr HOST:PORT

EXECUTION (any command):
  --workers N    decode worker threads (0 = one per core, default)
  --cache-mb N   decoded-GOP cache budget in MiB (0 disables; default 256)

QUERY: the spatiotemporal planner. --roi keeps only boxes intersecting the
  region of interest, --stride N samples every Nth frame of the window,
  --limit K stops after the first K matching frames, and --mode count|exists
  answers from the semantic index without decoding any tile. Pruned tiles
  and GOPs are never decoded; the command reports what the planner cut.
  Results are bit-identical to `tasm scan` filtered after the fact: `tasm
  scan` is the query with none of these clauses, and reads what it reads.
  --as-of E pins a still-live layout epoch (MVCC): the query reads that
  exact tile layout even if the video has since been re-tiled. Epochs stay
  live while a reader pins them; a reclaimed epoch is a typed error.

WORKLOAD: replays one of the paper's §5.3 workload generators through the
  concurrent QueryService: --concurrency query workers (0 = one per core)
  over a --queue-depth bounded queue, optionally with the background
  re-tiling daemon (--retile regret|more). Reports aggregate throughput,
  decoded-GOP cache reuse, the shared-scan dedup rate, and the
  submit-to-complete latency percentiles (p50/p95/p99).

SERVE: exposes every video in the store over TCP (tasm-proto wire
  protocol). Admission control: at most --max-connections sessions, at
  most --max-inflight queries per session, and a typed BUSY reply — never
  a blocked socket — when the service queue is full. Runs until a client
  sends `tasm client shutdown`; shutdown drains in-flight queries, stops
  the retile daemon, and prints the latency histogram. With --backup,
  every listed node receives a full sync at startup and every background
  re-tile is replicated (and acked) before it counts as durable.

CLUSTER: shard-map administration. `init` writes an epoch-1 CRC-framed
  cluster.json placing videos on the listed nodes by rendezvous hashing
  with R-way replication; `show` prints the map (and, with --video, one
  video's replica set). ROUTE starts the shard router over a map: clients
  speak plain tasm-proto to it, each query is forwarded to the video's
  primary (failing over to backups when a shard dies), `client stats`
  aggregates per-shard counters, and `client shutdown` drains the whole
  cluster in order. REBALANCE moves a video to a new primary with the
  staged protocol: copy, verify byte-equal manifests, flip the map epoch,
  GC the source copy.

STATS: storage accounting. Per video: on-disk tile bytes, the ratio
  against raw planar YUV, and how many tiles each codec holds (dct = the
  quantized transform codec every tile is written in, pred = the lossless
  entropy-coded codec of tiles written by earlier builds, still read).
  With --storage, also reports the semantic index tier: sorted-run count
  and sizes, memtable occupancy, WAL length, resident vs on-disk bytes,
  and the range tables' hit rate (run reads skipped) over one probe query
  per stored label.

FSCK: opens the store (running startup recovery: interrupted re-tiles are
  rolled forward or back, half-ingested videos reaped) and then validates
  every manifest against the on-disk tile packs and their container
  headers — SOT chain contiguity, tile presence, dimensions, GOP length,
  frame counts, exact container lengths, stray files. Exits non-zero if
  anything is wrong. Run it after a crash or `kill -9` before trusting a
  store.

CLIENT: drives a remote server. `query` mirrors the local `query` command
  (results are bit-identical to running it on the server's store),
  `loadgen` floods the server from a connection pool (--connections) and
  reports throughput plus client-observed latency percentiles; --frames N
  with --window W slides each request's frame window across the video.

OBSERVABILITY: --metrics-addr on `serve` and `route` exposes a Prometheus
  text endpoint (GET /metrics): counters, gauges, and log-scale latency
  histograms named in ARCHITECTURE.md. --slow-query-ms N logs any query
  slower than N ms — the full per-phase trace — through the structured
  stderr logger (--log-json switches it to JSON lines, --log-level sets
  verbosity). --explain on `query` and `client query` prints the query's
  per-phase breakdown (queue/plan/decode/stream) with its trace id, the
  serving instance, and the executed layout epoch. `stats --json` and
  `client stats --json` emit machine-readable statistics.

PRESETS: visual-road-2k, visual-road-4k, netflix-public, netflix-open-source,
         xiph, mot16, el-fuente-sparse, el-fuente-dense";

/// Routes a command line to its implementation.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let Some((cmd, rest)) = argv.split_first() else {
        println!("{USAGE}");
        return Ok(());
    };
    // `client` and `cluster` take a subcommand: `client query` is one command.
    let (cmd, rest) = match (cmd.as_str(), rest.split_first()) {
        ("client" | "cluster", Some((sub, rest))) => (format!("{cmd} {sub}"), rest),
        ("client" | "cluster", None) => {
            return Err(format!("{cmd} needs a subcommand\n\n{USAGE}").into())
        }
        _ => (cmd.clone(), rest),
    };
    let args = match cmd.as_str() {
        "stats" => Args::parse_with_flags(rest, &["storage", "json"]),
        c if c.starts_with("client ") => Args::parse_with_flags(rest, &["explain", "json"]),
        c if c.starts_with("cluster ") => Args::parse(rest),
        _ => Args::parse_with_flags(rest, &["explain", "log-json"]),
    }?;
    match cmd.as_str() {
        "ingest" => commands::ingest(&args),
        "detect" => commands::detect(&args),
        // A scan is the label-only query.
        "scan" | "query" => commands::query(&args),
        "retile" => commands::retile(&args),
        "observe" => commands::observe(&args),
        "workload" => commands::workload(&args),
        "info" => commands::info(&args),
        "stats" => commands::stats(&args),
        "fsck" => commands::fsck(&args),
        "serve" => remote::serve(&args),
        "route" => remote::route(&args),
        "rebalance" => remote::rebalance(&args),
        "client query" => remote::client_query(&args),
        "client loadgen" => remote::client_loadgen(&args),
        "client stats" => remote::client_stats(&args),
        "client shutdown" => remote::client_shutdown(&args),
        "cluster init" => remote::cluster_init(&args),
        "cluster show" => remote::cluster_show(&args),
        "presets" => {
            for d in Dataset::ALL {
                println!("{}", d.name());
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}").into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
