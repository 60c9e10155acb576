//! `routed_evict`: three shard `TasmServer`s behind one `Router`, one wire
//! connection through the router, whole-video pixel queries with Zipfian
//! video popularity, and a per-shard decoded-GOP cache of three quarters
//! of that shard's decoded working set (about two thirds of GOP lookups
//! hit). The "larger than the program's own cache" case plus the cluster
//! hop: LRU eviction and re-decode, router relay.

use super::{Args, Outcome};
use crate::corpus::{self, BuildProbe, StoreDirs, StoreSizes, TunedStore, VideoInfo, LABELS};
use crate::drive::{self, Remote};
use crate::pace::Pacer;
use crate::requests;
use crate::{procfs, stats};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasm_client::Connection;
use tasm_cluster::{NodeInfo, Router, RouterConfig, ShardMap};
use tasm_core::{Tasm, TasmConfig};
use tasm_server::{ServerConfig, ServerReport, TasmServer};
use tasm_service::ServiceConfig;

pub const NAME: &str = "routed_evict";
const SHARDS: usize = 3;
const ROUTE_WORKERS: usize = 1;

/// Videos are pinned round-robin, one replica each.
fn shard_of(video: usize) -> usize {
    video % SHARDS
}

/// Decoded bytes of every GOP a whole-video query for any of `LABELS`
/// touches: per SOT, the tiles under any labelled box, for the SOT's length.
fn decoded_working_set(source: &Tasm, info: &VideoInfo) -> u64 {
    let manifest = source.manifest(&info.name).expect("manifest");
    let mut bytes = 0;
    for sot in &manifest.sots {
        let mut tiles = BTreeSet::new();
        for boxes in &info.truth[sot.start as usize..sot.end as usize] {
            for (label, bbox) in boxes {
                if LABELS.contains(label) {
                    tiles.extend(sot.layout.tiles_intersecting(bbox));
                }
            }
        }
        for t in tiles {
            let r = sot.layout.tile_rect_by_index(t);
            bytes += r.w as u64 * r.h as u64 * 3 / 2 * sot.len() as u64;
        }
    }
    bytes
}

struct Shard {
    dirs: StoreDirs,
    tasm: Arc<Tasm>,
    server: TasmServer,
    cache_bytes: u64,
    raw_bytes: u64,
}

struct Cluster {
    /// The tuned store the shards were filled from: serial and uncached, it
    /// is also the oracle's reference (shard tile files are its bytes).
    source: TunedStore,
    shards: Vec<Shard>,
    router: Router,
    client: Connection,
    sync_ms: Vec<f64>,
}

fn setup(dir: &Path, seeds: &[u64], pacer: &mut Pacer) -> Cluster {
    let source = TunedStore::build(&dir.join("source"), seeds, corpus::serial_uncached(), pacer);
    let mut sync_ms = Vec::new();
    let mut shards = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let mine: Vec<&VideoInfo> = source
            .videos
            .iter()
            .enumerate()
            .filter(|(v, _)| shard_of(*v) == s)
            .map(|(_, info)| info)
            .collect();
        let working_set: u64 = mine
            .iter()
            .map(|i| decoded_working_set(&source.tasm, i))
            .sum();
        // Three quarters: about 0.65 of GOP lookups hit on every seed, inside
        // the 0.3..=0.8 the workload is valid for, and the median query is a
        // hit while the tail is misses. (With half the lookups hitting, the
        // median sits on the cliff between the two and moves 10 % by itself.)
        let cache_bytes = working_set * 3 / 4;
        let dirs = StoreDirs {
            root: dir.join(format!("shard{s}")),
        };
        let tasm = Arc::new(dirs.open(TasmConfig {
            cache_bytes,
            ..corpus::serial_uncached()
        }));
        for info in &mine {
            let t = Instant::now();
            corpus::sync_video(&source.tasm, &tasm, info, &mut BuildProbe::default());
            sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let server = TasmServer::bind(
            Arc::clone(&tasm),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .expect("bind shard");
        shards.push(Shard {
            dirs,
            tasm,
            server,
            cache_bytes,
            raw_bytes: mine.iter().map(|i| i.raw_bytes).sum(),
        });
    }

    let nodes = shards
        .iter()
        .enumerate()
        .map(|(s, shard)| NodeInfo {
            id: format!("n{s}"),
            addr: shard.server.local_addr().to_string(),
        })
        .collect();
    let mut map = ShardMap::new(nodes, 1).expect("shard map");
    for (v, info) in source.videos.iter().enumerate() {
        map.pin(&info.name, vec![format!("n{}", shard_of(v))]);
    }
    let map_path = dir.join("cluster.json");
    map.save(&map_path).expect("save shard map");
    let router = Router::bind(
        RouterConfig {
            map_path,
            route_workers: ROUTE_WORKERS,
            shard_io_timeout: Duration::from_secs(30),
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");

    let mut client = Connection::connect(router.local_addr()).expect("connect to router");
    // So the window starts from a cache in its steady, full state.
    super::warm_up(&mut client, &source.videos);
    Cluster {
        source,
        shards,
        router,
        client,
        sync_ms,
    }
}

/// Drains the router, then every shard, through their shutdown paths.
fn stop(
    router: Router,
    shards: Vec<Shard>,
    client: Connection,
) -> (tasm_cluster::ClusterShutdownReport, Vec<ServerReport>) {
    let _ = client.goodbye();
    let cluster = router.shutdown(true);
    let shards = shards.into_iter().map(|s| s.server.shutdown()).collect();
    (cluster, shards)
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let seeds = corpus::corpus_seeds();
    let mut pacer = Pacer::new();
    let (cluster, reps) = super::repeat_setup(
        args,
        scratch,
        &mut pacer,
        |dir, pacer| setup(dir, &seeds, pacer),
        |cluster| Some(&cluster.source),
        |c| {
            stop(c.router, c.shards, c.client);
        },
    );
    let Cluster {
        source,
        shards,
        router,
        client,
        sync_ms,
    } = cluster;

    let names = source.names();
    let mut plan = requests::routed_mix(
        &mut args.request_rng(),
        args.requests(NAME),
        names.len(),
        source.videos[0].frame_count,
    );
    requests::shuffle(&mut args.order_rng(), &mut plan);

    let mut target = Remote(client);
    let window = drive::run_window(&mut target, &names, &plan, &mut pacer);
    let paced = pacer.finish();
    let threads = procfs::status("Threads:");

    let mut out = Outcome::new();
    out.read_window(&window, &source, &reps, &paced);
    let references = vec![&source.tasm; names.len()];
    out.failed += drive::verify(&window.results, &plan, &names, &references);
    let stores: Vec<&Tasm> = shards.iter().map(|s| s.tasm.as_ref()).collect();
    out.failed += super::fsck_failures(&stores);
    let sync_ms = stats::median(&sync_ms);
    out.layers.insert("cluster.sync_ms_per_video", sync_ms);
    out.layers.insert("reactor.threads", threads as f64);
    // Routed, what lies beyond the executing shard is the wire plus the hop.
    let beyond_shard = out.layers["proto.wire_us_p50"];
    out.layers.insert("router.hop_us_p50", beyond_shard);
    let cache_used: u64 = stores
        .iter()
        .map(|t| t.store().decoded_cache().map_or(0, |c| c.bytes_used()))
        .sum();
    out.layers
        .insert("exec.cache_bytes_used", cache_used as f64);
    let queue_peak = shards.iter().map(|s| s.server.stats().queue_peak).max();
    out.layers
        .insert("service.queue_peak", queue_peak.unwrap_or(0) as f64);
    let live = stores.iter().map(|t| super::live_epochs_max(t)).max();
    out.layers
        .insert("tasm.live_epochs_max", live.unwrap_or(0) as f64);

    let hit_ratio = out.layers["exec.cache_hit_ratio"];
    if !(0.3..=0.8).contains(&hit_ratio) {
        let what = format!("cache hit ratio {hit_ratio:.3}, expected 0.3..=0.8");
        return Err(super::misconfigured(NAME, what));
    }

    if args.traced {
        let handles: Vec<&Tasm> = (0..names.len()).map(|v| stores[shard_of(v)]).collect();
        let index = (&source.dirs, &source.tasm);
        out.trace(args, &mut target, &names, &plan, &handles, index)?;
    }
    let sizes = shards
        .iter()
        .map(|s| StoreSizes::measure(&s.tasm, &s.dirs, s.raw_bytes))
        .reduce(StoreSizes::merge)
        .expect("at least one shard");
    super::size_metrics(&mut out.e2e, &mut out.layers, &sizes);
    let budgets: Vec<String> = shards.iter().map(|s| s.cache_bytes.to_string()).collect();
    out.config.push(("decode_workers", "1".into()));
    out.config.push(("service_workers_per_shard", "1".into()));
    out.config
        .push(("route_workers", ROUTE_WORKERS.to_string()));
    out.config
        .push(("cache_bytes_per_shard", budgets.join(",")));
    out.config.push(("clients", "1".into()));

    drop(stores);
    let (drained, reports) = stop(router, shards, target.0);
    out.layers
        .insert("router.retries", drained.router.retries as f64);
    out.layers
        .insert("router.failovers", drained.router.failovers as f64);
    let busy: u64 = reports.iter().map(|r| r.busy_rejections).sum();
    let busy = busy + drained.router.busy_rejections;
    out.layers.insert("server.busy_rejects", busy as f64);
    let refused: u64 = reports.iter().map(|r| r.connection_rejections).sum();
    out.layers
        .insert("server.connections_rejected", refused as f64);
    out.failed += drained.shards.iter().filter(|s| s.error.is_some()).count() as u64;
    out.e2e.insert("peak_rss_mb", procfs::peak_rss_mb());
    Ok(out)
}
