//! Cluster-layer acceptance tests: failover and rebalancing are invisible
//! to correctness.
//!
//! The contract under test (the PR's acceptance criterion): with R=2
//! replication, `kill -9` of a shard primary mid-workload — while its
//! regret daemon is re-tiling live — makes the router fail over, and every
//! subsequent query is **bit-identical** to a single-node twin at the same
//! layout epoch. Likewise, `rebalance` moving a video between shards
//! mid-workload never changes a single result byte, and `fsck` is clean on
//! every node afterwards.
//!
//! The primary runs in a *child process* (this same test binary re-invoked
//! with `--exact child_shard_server` and env vars set) so the kill is a
//! real SIGKILL — no destructors, no flushed buffers, exactly the failure
//! replication has to survive. Bit-exactness across the failover rests on
//! the ack-before-durable rule: the retile daemon's hook ships the new
//! layout (raw tile bytes, verbatim) to the backup and only counts the
//! re-tile in `retile_ops` once the backup acked, so `retile_ops > 0`
//! observed through the router guarantees the backup can answer at the
//! post-re-tile epoch.

use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tasm_client::Connection;
use tasm_cluster::{NodeInfo, Replicator, Router, RouterConfig, ShardMap};
use tasm_codec::TileLayout;
use tasm_core::{LabelPredicate, Query, QueryMode, StorageConfig, Tasm, TasmConfig};
use tasm_index::MemoryIndex;
use tasm_proto::ReplicationRecord;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{RetileHook, RetilePolicy, ServiceConfig};
use tasm_suite::{config, ingest, regions_identical, scene, Reference, TempDir};
use tasm_video::Rect;

const FRAMES: u32 = 60;

const CHILD_STORE_ENV: &str = "TASM_CLUSTER_CHILD_STORE";
const CHILD_BACKUP_ENV: &str = "TASM_CLUSTER_CHILD_BACKUP";
const CHILD_ADDR_FILE_ENV: &str = "TASM_CLUSTER_CHILD_ADDR_FILE";

/// One SOT spanning the whole video and a hair-trigger regret threshold:
/// exactly two layout epochs, with the re-tile landing mid-workload (the
/// same tuning `remote_query.rs` uses for its epoch-exactness test). Twin,
/// primary, and backup must share this config bit for bit — the re-tile's
/// encode is deterministic given the config and the observed layout.
fn tuned_cfg() -> TasmConfig {
    let mut cfg = config();
    cfg.storage.sot_frames = FRAMES;
    cfg.eta = 0.05;
    cfg
}

/// Opens a disk-backed store (tiered index) the way the CLI lays one out,
/// so a child process can reopen it by path.
fn open_store(dir: &Path, cfg: TasmConfig) -> Arc<Tasm> {
    Arc::new(Tasm::open_tiered(dir.join("videos"), &dir.join("index"), cfg).unwrap())
}

/// An ephemeral in-process store (memory index).
fn open_mem(dir: PathBuf, cfg: TasmConfig) -> Arc<Tasm> {
    Arc::new(Tasm::open(dir, Box::new(MemoryIndex::in_memory()), cfg).unwrap())
}

/// All-car query mix (windows/ROI/stride/limit vary): with one SOT and one
/// label the regret policy converges on one alternative layout, so a
/// serially-driven twin reproduces the primary's second epoch.
fn mix() -> Vec<Query> {
    (0..4u32)
        .flat_map(|client| {
            let start = client * 5;
            vec![
                Query::new(LabelPredicate::label("car")).frames(start..start + 40),
                Query::new(LabelPredicate::label("car"))
                    .frames(start..start + 50)
                    .roi(Rect::new(0, 0, 128, 80))
                    .stride(2),
                Query::new(LabelPredicate::label("car"))
                    .frames(start..start + 30)
                    .limit(4),
                Query::new(LabelPredicate::label("car"))
                    .frames(0..FRAMES)
                    .mode(QueryMode::Count),
            ]
        })
        .collect()
}

/// Not a test: the shard-primary *process* for the failover test below.
/// The parent spawns this test binary with `--exact child_shard_server`
/// and the `TASM_CLUSTER_CHILD_*` env vars set; in a normal test run the
/// env is absent and this is a no-op. The child attaches the store the
/// parent ingested, full-syncs the backup, and serves with the regret
/// daemon re-tiling live — then waits to be killed.
#[test]
fn child_shard_server() {
    let (Ok(store), Ok(backup), Ok(addr_file)) = (
        std::env::var(CHILD_STORE_ENV),
        std::env::var(CHILD_BACKUP_ENV),
        std::env::var(CHILD_ADDR_FILE_ENV),
    ) else {
        return;
    };
    let tasm = open_store(Path::new(&store), tuned_cfg());
    tasm.attach("v").expect("attach ingested video");
    let hook =
        tasm_cluster::ReplicatorHook::bootstrap(Arc::clone(&tasm), std::slice::from_ref(&backup))
            .expect("full-sync backup");
    let server = TasmServer::bind_with_hook(
        tasm,
        ServiceConfig {
            workers: 2,
            queue_depth: 32,
            retile: RetilePolicy::Regret,
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
        Some(Arc::new(hook)),
    )
    .expect("bind shard primary");
    // Publish the bound address atomically (write + rename) for the parent.
    // Visibility is all it needs, not durability, so not through StorageIo.
    let tmp = format!("{addr_file}.tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).unwrap();
    #[allow(clippy::disallowed_methods)]
    std::fs::rename(&tmp, &addr_file).unwrap();
    // Serve until the parent SIGKILLs this process.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Regression: the replication hook must ack the delta of a re-tile that
/// committed as a deferred-GC MVCC layout epoch on a disk-backed store —
/// the exact path the kill-9 test's child primary runs, reproduced
/// in-process so a failure surfaces the hook's actual error instead of a
/// `retile_ops` flatline through the router.
#[test]
fn replication_hook_acks_the_delta_of_a_live_retile() {
    let video = scene(256, 160, FRAMES, 47);
    let base = TempDir::new("cluster-hook-delta");
    let primary = open_store(&base.path().join("primary"), tuned_cfg());
    ingest(&primary, "v", &video);
    let backup_tasm = open_store(&base.path().join("backup"), tuned_cfg());
    let backup = TasmServer::bind(
        Arc::clone(&backup_tasm),
        ServiceConfig {
            workers: 1,
            queue_depth: 16,
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind backup shard");
    let backup_addr = backup.local_addr().to_string();
    let hook = tasm_cluster::ReplicatorHook::bootstrap(
        Arc::clone(&primary),
        std::slice::from_ref(&backup_addr),
    )
    .expect("full-sync bootstrap");

    let mut retiled = false;
    for _ in 0..64 {
        if primary
            .observe_regret("v", "car", 0..FRAMES)
            .unwrap()
            .encode
            .bytes_produced
            > 0
        {
            retiled = true;
            break;
        }
    }
    assert!(
        retiled,
        "the regret policy must re-tile the disk-backed primary"
    );
    hook.retiled("v")
        .expect("the hook must replicate the re-tile delta");

    // The backup answers bit-identically to the primary at the new epoch.
    let epoch = primary.current_epoch("v").unwrap();
    assert!(epoch > 0, "the re-tile must advance the layout epoch");
    assert_eq!(
        backup_tasm.current_epoch("v").unwrap(),
        epoch,
        "the backup must sit at the primary's layout epoch after the ack"
    );
    let mut conn = Connection::connect(backup.local_addr()).expect("connect backup");
    for (qi, q) in mix().iter().enumerate() {
        let local = primary.query("v", q).unwrap();
        let remote = conn.query("v", q).expect("backup query");
        assert_eq!(remote.matched, local.matched, "query {qi}: matched");
        assert!(
            regions_identical(&local.regions, &remote.regions),
            "query {qi}: backup bytes diverge from the primary"
        );
    }
}

/// One delta can ship two SOTs: an observed window that crosses a SOT
/// boundary re-tiles both, and `sync_delta` sends one `CommitSot` for
/// each, every record carrying the primary's manifest after both commits.
/// The backup installs each record's own SOT over the manifest it holds,
/// so after the delta it names only packs it received: its manifest is
/// the primary's, `fsck` is clean, and both SOTs answer the reference's
/// pixels.
#[test]
fn a_delta_of_two_retiled_sots_lands_whole_on_the_backup() {
    let video = scene(256, 160, 20, 47);
    let base = TempDir::new("cluster-two-sot-delta");
    let primary = open_mem(base.path().join("primary"), config());
    ingest(&primary, "v", &video);
    let backup_tasm = open_mem(base.path().join("backup"), config());
    let backup = TasmServer::bind(
        Arc::clone(&backup_tasm),
        ServiceConfig {
            workers: 1,
            queue_depth: 16,
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind backup shard");
    let mut replicator = Replicator::connect(&backup.local_addr().to_string()).unwrap();
    replicator.sync_full(&primary, "v").unwrap();

    let quads = TileLayout::uniform(256, 160, 2, 2).unwrap();
    for sot in 0..2 {
        primary.retile("v", sot, quads.clone()).unwrap();
    }
    replicator
        .sync_delta(&primary, "v")
        .expect("the backup acks both SOTs");

    assert_eq!(
        backup_tasm.manifest("v").unwrap(),
        primary.manifest("v").unwrap()
    );
    let fsck = backup_tasm.fsck().unwrap();
    assert!(fsck.is_clean(), "{:?}", fsck.issues);
    let mut reference = Reference::new(&backup_tasm);
    for frames in [0..10, 10..20] {
        let q = Query::new(LabelPredicate::label("car")).frames(frames.clone());
        let got = backup_tasm.query("v", &q).expect("the backup answers");
        assert!(!got.regions.is_empty(), "frames {frames:?}");
        reference.check("v", &q, &got, &format!("frames {frames:?}"));
    }
}

/// A backup takes its peer's manifest verbatim, config included: one with
/// no GOP length (a division by zero at the backup's first query) or a QP
/// past the quantizer's table (a panic at its next re-tile) is a typed
/// error frame before a byte lands, the session stays up, and the sound
/// manifest behind it installs.
#[test]
fn a_backup_refuses_a_peers_out_of_range_config() {
    let video = scene(256, 160, FRAMES, 47);
    let base = TempDir::new("cluster-peer-config");
    let primary = open_mem(base.path().join("primary"), config());
    ingest(&primary, "v", &video);
    let backup_tasm = open_mem(base.path().join("backup"), config());
    let backup = TasmServer::bind(
        Arc::clone(&backup_tasm),
        ServiceConfig {
            workers: 1,
            queue_depth: 16,
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind backup shard");
    let manifest = primary.manifest("v").unwrap();
    let mut conn = Connection::connect(backup.local_addr()).expect("connect backup");
    let mut sync = |config: StorageConfig| {
        for (sot_idx, sot) in manifest.sots.iter().enumerate() {
            let tiles = (0..sot.layout.tile_count())
                .map(|t| primary.store().tile_file_bytes(&manifest, sot_idx, t))
                .collect::<Result<_, _>>()
                .unwrap();
            conn.replicate(ReplicationRecord::StageSot {
                video: "v".to_string(),
                sot_idx: sot_idx as u32,
                tiles,
            })
            .expect("staging only holds the bytes");
        }
        let sent = tasm_core::VideoManifest {
            config,
            ..manifest.clone()
        };
        conn.replicate(ReplicationRecord::CommitVideo {
            epoch: 0,
            video: "v".to_string(),
            manifest: serde_json::to_vec(&sent).unwrap(),
        })
    };
    for (qp, gop_len) in [(28, 0), (60, 30)] {
        let refused = sync(StorageConfig {
            qp,
            gop_len,
            ..manifest.config
        })
        .expect_err("an out-of-range config must not install");
        assert!(
            refused.to_string().contains("invalid storage config"),
            "{refused}"
        );
        assert!(!backup_tasm.has_stored_video("v"));
        assert!(!base.path().join("backup").join("v").exists());
        assert!(backup_tasm.fsck().unwrap().is_clean());
    }
    sync(manifest.config).expect("the sound manifest installs");
    assert_eq!(backup_tasm.manifest("v").unwrap(), manifest);
    assert!(backup_tasm.fsck().unwrap().is_clean());
}

/// R=2 failover: `kill -9` the primary mid-workload (regret daemon
/// re-tiling live) and every subsequent query through the router is
/// bit-identical to a single-node twin at the replicated layout epoch.
#[test]
fn kill9_failover_stays_bit_identical_at_a_replicated_epoch() {
    let video = scene(256, 160, FRAMES, 47);
    let base = TempDir::new("cluster-failover");
    let mix = mix();

    // In-process references for both epochs, from a serially-driven twin.
    let twin = open_mem(base.path().join("twin"), tuned_cfg());
    ingest(&twin, "v", &video);
    let ref_pre: Vec<_> = mix.iter().map(|q| twin.query("v", q).unwrap()).collect();
    let mut retiled = false;
    for _ in 0..64 {
        if twin
            .observe_regret("v", "car", 0..FRAMES)
            .unwrap()
            .encode
            .bytes_produced
            > 0
        {
            retiled = true;
            break;
        }
    }
    assert!(retiled, "the twin's regret policy must re-tile");
    let ref_post: Vec<_> = mix.iter().map(|q| twin.query("v", q).unwrap()).collect();
    assert!(
        mix.iter().enumerate().any(|(i, q)| {
            q.query_mode() == QueryMode::Pixels
                && !regions_identical(&ref_pre[i].regions, &ref_post[i].regions)
        }),
        "the re-tile must change pixels, or epoch tearing would be invisible"
    );

    // The primary's store on disk — detections in the tiered index — so
    // the child process can attach and serve it.
    {
        let primary = open_store(&base.path().join("primary"), tuned_cfg());
        ingest(&primary, "v", &video);
        primary.with_index(|ix| ix.flush()).unwrap();
    }

    // The backup shard lives in this process (we fsck it at the end).
    let backup_tasm = open_store(&base.path().join("backup"), tuned_cfg());
    let backup = TasmServer::bind(
        Arc::clone(&backup_tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 32,
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind backup shard");
    let backup_addr = backup.local_addr().to_string();

    // The primary shard in a child process, so the kill is a real SIGKILL.
    let addr_file = base.path().join("child.addr");
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "child_shard_server", "--nocapture"])
        .env(CHILD_STORE_ENV, base.path().join("primary"))
        .env(CHILD_BACKUP_ENV, &backup_addr)
        .env(CHILD_ADDR_FILE_ENV, &addr_file)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child shard primary");
    let child_addr = {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                break addr;
            }
            assert!(
                Instant::now() < deadline,
                "child shard never published its address"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    // Shard map: R=2, the child pinned primary, the in-process backup
    // second.
    let map_path = base.path().join("cluster.json");
    let mut map = ShardMap::new(
        vec![
            NodeInfo {
                id: "n1".to_string(),
                addr: child_addr,
            },
            NodeInfo {
                id: "n2".to_string(),
                addr: backup_addr,
            },
        ],
        2,
    )
    .unwrap();
    map.pin("v", vec!["n1".to_string(), "n2".to_string()]);
    map.save(&map_path).unwrap();

    let router = Router::bind(
        RouterConfig {
            map_path,
            shard_io_timeout: Duration::from_secs(5),
            health_interval: Duration::from_millis(100),
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");
    let mut conn = Connection::connect(router.local_addr()).expect("connect to router");

    // Pre-kill workload through the router: every result epoch-exact, and
    // keep going until the primary's re-tile has committed *and
    // replicated* — the hook acks before `retile_ops` counts the op, so
    // the merged stats reading it as nonzero proves the backup holds the
    // post-re-tile layout.
    // The retile point is deterministic in *observations* (the regret sums
    // are additive), but the daemon consumes its backlog asynchronously —
    // on a loaded machine it can trail this loop by many passes. So the
    // bound is wall-clock, not pass count: keep the workload flowing until
    // the daemon catches up and the hook acks.
    let mut replicated = false;
    let drive_deadline = Instant::now() + Duration::from_secs(120);
    let mut pass = 0u32;
    while Instant::now() < drive_deadline {
        for (qi, query) in mix.iter().enumerate() {
            let remote = conn.query("v", query).expect("routed query");
            let what = format!("pre-kill pass {pass} query {qi}");
            assert_eq!(remote.matched, ref_pre[qi].matched, "{what}: matched");
            assert!(
                regions_identical(&ref_pre[qi].regions, &remote.regions)
                    || regions_identical(&ref_post[qi].regions, &remote.regions),
                "{what}: result matches neither epoch's in-process reference"
            );
        }
        pass += 1;
        if conn.stats().expect("router stats fan-out").retile_ops > 0 {
            replicated = true;
            break;
        }
    }
    assert!(
        replicated,
        "the primary's regret daemon must re-tile (and replicate) within \
         {pass} workload passes / 120 s"
    );

    // kill -9 the primary while a workload thread is querying.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let workload = scope.spawn(|| {
            let mut conn = Connection::connect(router.local_addr()).expect("connect");
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for (qi, query) in mix.iter().enumerate() {
                    let remote = conn.query("v", query).expect("query across the failover");
                    assert_eq!(remote.matched, ref_pre[qi].matched);
                    assert!(
                        regions_identical(&ref_pre[qi].regions, &remote.regions)
                            || regions_identical(&ref_post[qi].regions, &remote.regions),
                        "mid-failover query {qi} torn: matches neither epoch"
                    );
                    served += 1;
                }
            }
            served
        });
        std::thread::sleep(Duration::from_millis(50));
        child.kill().expect("SIGKILL the primary");
        child.wait().ok();
        // Let the workload straddle the kill: failures on the dead primary
        // retry onto the backup inside the router, invisible to the client.
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        let served = workload.join().expect("workload thread");
        assert!(served > 0, "the workload must have queried across the kill");
    });

    // Every query now lands on the promoted backup, which replication left
    // at the post-re-tile epoch — results must be bit-identical to the
    // twin's post-epoch references, not merely "either epoch".
    for (qi, query) in mix.iter().enumerate() {
        let remote = conn.query("v", query).expect("post-failover query");
        assert_eq!(remote.matched, ref_pre[qi].matched, "query {qi}: matched");
        assert!(
            regions_identical(&ref_post[qi].regions, &remote.regions),
            "post-failover query {qi} is not bit-identical to the twin at \
             the replicated epoch"
        );
    }

    let stats = router.stats();
    assert!(stats.retries >= 1, "failover implies replica retries");
    assert!(
        stats.failovers >= 1 && stats.down.contains(&"n1".to_string()),
        "the dead primary must be marked down: {stats:?}"
    );

    // The survivor's store is intact, and the killed store recovers clean
    // on reopen (startup recovery rolls the interrupted state consistent).
    assert!(
        backup_tasm.fsck().unwrap().is_clean(),
        "backup fsck must be clean after serving the failover"
    );
    drop(conn);
    router.shutdown(false);
    backup.shutdown();
    let revived = open_store(&base.path().join("primary"), tuned_cfg());
    revived.attach("v").expect("reattach after kill");
    assert!(
        revived.fsck().unwrap().is_clean(),
        "the killed primary's store must recover to a clean fsck"
    );
    drop(revived);
}

/// Rebalancing a video between shards mid-workload is invisible: every
/// query through the router — before, during, and after the copy → verify
/// → flip → GC sequence — is bit-identical to the single reference, the
/// source's copy is garbage-collected, and fsck is clean on every node.
#[test]
fn rebalance_mid_workload_is_bit_exact_and_gcs_the_source() {
    let video = scene(256, 160, FRAMES, 47);
    let base = TempDir::new("cluster-rebalance");
    let mix = mix();

    // Single-epoch reference (daemon off everywhere).
    let twin = open_mem(base.path().join("twin"), config());
    ingest(&twin, "v", &video);
    let reference: Vec<_> = mix.iter().map(|q| twin.query("v", q).unwrap()).collect();

    // Three in-process shards; the video starts on [n1, n2].
    let shard = |tag: &str| {
        let tasm = open_mem(base.path().join(tag), config());
        let server = TasmServer::bind(
            Arc::clone(&tasm),
            ServiceConfig {
                workers: 2,
                queue_depth: 32,
                ..Default::default()
            },
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .expect("bind shard");
        (tasm, server)
    };
    let (n1_tasm, n1) = shard("n1");
    let (n2_tasm, n2) = shard("n2");
    let (n3_tasm, n3) = shard("n3");
    ingest(&n1_tasm, "v", &video);
    // Seed the R=2 replica on n2 through the wire, as `serve --backup`
    // would.
    let mut seed = Connection::connect(n1.local_addr()).expect("connect n1");
    seed.push_video("v", &n2.local_addr().to_string())
        .expect("seed replica on n2");
    drop(seed);

    let map_path = base.path().join("cluster.json");
    let mut map = ShardMap::new(
        vec![
            NodeInfo {
                id: "n1".to_string(),
                addr: n1.local_addr().to_string(),
            },
            NodeInfo {
                id: "n2".to_string(),
                addr: n2.local_addr().to_string(),
            },
            NodeInfo {
                id: "n3".to_string(),
                addr: n3.local_addr().to_string(),
            },
        ],
        2,
    )
    .unwrap();
    map.pin("v", vec!["n1".to_string(), "n2".to_string()]);
    map.save(&map_path).unwrap();
    let epoch0 = ShardMap::load(&map_path).unwrap().epoch;

    let router = Router::bind(
        RouterConfig {
            map_path: map_path.clone(),
            health_interval: Duration::from_millis(50),
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");

    // Queries flow while the rebalance runs; the flip must never tear or
    // change a result.
    let stop = AtomicBool::new(false);
    let mut report = None;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (mix, reference, stop) = (&mix, &reference, &stop);
                let addr = router.local_addr();
                scope.spawn(move || {
                    let mut conn = Connection::connect(addr).expect("connect");
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for (qi, query) in mix.iter().enumerate() {
                            let remote = conn
                                .query("v", query)
                                .expect("routed query across rebalance");
                            assert_eq!(remote.matched, reference[qi].matched);
                            assert!(
                                regions_identical(&reference[qi].regions, &remote.regions),
                                "query {qi} changed during the rebalance"
                            );
                            served += 1;
                        }
                    }
                    served
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(100));
        report = Some(
            tasm_cluster::rebalance(&map_path, "v", "n3", Duration::from_secs(10))
                .expect("rebalance"),
        );
        // Keep querying across the epoch flip, the router's map reload,
        // and the source GC.
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            let served = w.join().expect("workload thread");
            assert!(served > 0, "workload must straddle the rebalance");
        }
    });
    let report = report.unwrap();
    assert_eq!(report.from.first().map(String::as_str), Some("n1"));
    assert_eq!(report.to.first().map(String::as_str), Some("n3"));
    assert!(report.removed.contains(&"n1".to_string()));

    // The flip is durable and the router routes the new epoch.
    let flipped = ShardMap::load(&map_path).unwrap();
    assert!(flipped.epoch > epoch0, "the flip must bump the map epoch");
    let placed: Vec<_> = flipped
        .placement("v", &Default::default())
        .into_iter()
        .map(|n| n.id.clone())
        .collect();
    assert_eq!(placed, ["n3".to_string(), "n2".to_string()]);
    let deadline = Instant::now() + Duration::from_secs(5);
    while router.stats().map_epoch < flipped.epoch {
        assert!(
            Instant::now() < deadline,
            "router never reloaded the flipped map"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Post-flip queries: still bit-exact, now served by the new primary.
    let mut conn = Connection::connect(router.local_addr()).expect("connect");
    for (qi, query) in mix.iter().enumerate() {
        let remote = conn.query("v", query).expect("post-flip query");
        assert_eq!(remote.matched, reference[qi].matched, "query {qi}: matched");
        assert!(
            regions_identical(&reference[qi].regions, &remote.regions),
            "post-flip query {qi} differs from the reference"
        );
    }
    drop(conn);

    // The source's copy is unreferenced after the flip and was GC'd; the
    // target's manifest is byte-identical to the surviving replica's; and
    // every node's store passes fsck.
    assert!(
        n1_tasm.video_names().is_empty(),
        "the source must have GC'd its copy"
    );
    assert_eq!(
        tasm_cluster::manifest_json(&n3_tasm, "v").unwrap(),
        tasm_cluster::manifest_json(&n2_tasm, "v").unwrap(),
        "target and surviving replica must hold byte-identical manifests"
    );
    for (tag, tasm) in [("n1", &n1_tasm), ("n2", &n2_tasm), ("n3", &n3_tasm)] {
        assert!(tasm.fsck().unwrap().is_clean(), "{tag}: fsck must be clean");
    }

    router.shutdown(false);
    n1.shutdown();
    n2.shutdown();
    n3.shutdown();
}

/// One query's response stream read frame by frame off a raw session:
/// every frame up to and including the `ResultDone`, prefix stripped.
fn raw_response(addr: std::net::SocketAddr, id: u64, query: &Query) -> Vec<Vec<u8>> {
    use tasm_proto::{read_frame, Message, VERSION};
    let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
    Message::ClientHello { version: VERSION }
        .write_to(&mut stream)
        .expect("hello");
    assert!(matches!(
        Message::read_from(&mut stream).expect("server hello"),
        Message::ServerHello { .. }
    ));
    Message::Query {
        id,
        video: "v".to_string(),
        query: query.clone(),
        trace_id: None,
    }
    .write_to(&mut stream)
    .expect("query");
    let mut frames = Vec::new();
    loop {
        let payload = read_frame(&mut stream).expect("response frame");
        let done = matches!(
            Message::decode_payload(&payload).expect("decodes"),
            Message::ResultDone { .. }
        );
        frames.push(payload);
        if done {
            return frames;
        }
    }
}

/// The router relays a shard's frames, it does not re-encode them: the
/// header and every region a client gets through the router are the
/// shard's own bytes except for the eight of the request id.
#[test]
fn relayed_frames_are_the_shards_bytes_but_for_the_id() {
    let video = scene(256, 160, FRAMES, 47);
    let base = TempDir::new("cluster-relay");
    let tasm = open_mem(base.path().join("n1"), config());
    ingest(&tasm, "v", &video);
    let shard = TasmServer::bind(
        Arc::clone(&tasm),
        ServiceConfig::default(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind shard");
    let map_path = base.path().join("cluster.json");
    let node = NodeInfo {
        id: "n1".to_string(),
        addr: shard.local_addr().to_string(),
    };
    ShardMap::new(vec![node], 1)
        .unwrap()
        .save(&map_path)
        .unwrap();
    let router = Router::bind(
        RouterConfig {
            map_path,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");

    let query = Query::new(LabelPredicate::label("car")).frames(0..FRAMES);
    let (direct_id, routed_id) = (5u64, 0x0900_0000_0000_0321u64);
    let direct = raw_response(shard.local_addr(), direct_id, &query);
    let routed = raw_response(router.local_addr(), routed_id, &query);
    assert_eq!(direct.len(), routed.len());
    assert!(direct.len() > 2, "the query returns regions");
    // The closing frame carries the trace, whose timings differ per run.
    for (d, r) in direct.iter().zip(&routed).take(direct.len() - 1) {
        assert_eq!(d[0], r[0], "same frame kind");
        assert_eq!(d[1..9], direct_id.to_le_bytes());
        assert_eq!(r[1..9], routed_id.to_le_bytes());
        assert_eq!(d[9..], r[9..], "relayed verbatim");
    }

    // Requests pipelined to the router arrive in one read; the router
    // pauses the session per request, so the later ones wait in its frame
    // reader — and must be picked up from there, not from the socket.
    use tasm_proto::{Message, VERSION};
    let mut stream = std::net::TcpStream::connect(router.local_addr()).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut burst = Message::ClientHello { version: VERSION }.encode();
    for id in 0..3 {
        burst.extend(
            Message::Query {
                id,
                video: "v".to_string(),
                query: query.clone(),
                trace_id: None,
            }
            .encode(),
        );
    }
    std::io::Write::write_all(&mut stream, &burst).expect("pipelined burst");
    let mut done = Vec::new();
    while done.len() < 3 {
        if let Message::ResultDone { id, .. } =
            Message::read_from(&mut stream).expect("every pipelined request is answered")
        {
            done.push(id);
        }
    }
    assert_eq!(done, [0, 1, 2]);
    router.shutdown(false);
    shard.shutdown();
}

/// When every replica refuses, the client gets the real refusal, not a
/// later replica's `UnknownVideo`: n1 holds `v` but not the epoch asked
/// for, n2 never received `v`, and the error names both in placement
/// order.
#[test]
fn a_later_unknown_video_does_not_mask_a_real_refusal() {
    let video = scene(256, 160, FRAMES, 53);
    let base = TempDir::new("cluster-refusal");
    let holder = open_mem(base.path().join("n1"), config());
    ingest(&holder, "v", &video);
    let empty = open_mem(base.path().join("n2"), config());
    let bind = |tasm: &Arc<Tasm>| {
        TasmServer::bind(
            Arc::clone(tasm),
            ServiceConfig::default(),
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .expect("bind shard")
    };
    let (n1, n2) = (bind(&holder), bind(&empty));
    let map_path = base.path().join("cluster.json");
    let nodes = [("n1", &n1), ("n2", &n2)]
        .map(|(id, server)| NodeInfo {
            id: id.to_string(),
            addr: server.local_addr().to_string(),
        })
        .to_vec();
    let mut map = ShardMap::new(nodes, 2).unwrap();
    map.pin("v", vec!["n1".to_string(), "n2".to_string()]);
    map.save(&map_path).unwrap();
    let router = Router::bind(
        RouterConfig {
            map_path,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");

    let query = Query::new(LabelPredicate::label("car"))
        .frames(0..FRAMES)
        .as_of(999);
    let mut conn = Connection::connect(router.local_addr()).expect("connect");
    match conn.query("v", &query) {
        Err(tasm_client::ClientError::Rejected { code, message }) => {
            assert_eq!(code, tasm_proto::ErrorCode::EpochNotLive, "{message}");
            let (at1, at2) = (message.find("n1"), message.find("n2"));
            assert!(
                at1.is_some() && at2.is_some() && at1 < at2,
                "names every replica in placement order: {message}"
            );
        }
        Err(other) => panic!("expected a typed refusal, got {other}"),
        Ok(_) => panic!("no replica holds epoch 999"),
    }
    conn.goodbye().expect("goodbye");
    router.shutdown(false);
    n1.shutdown();
    n2.shutdown();
}
