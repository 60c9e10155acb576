//! The storage manager's contract (§3.1, §4.4): a tile layout changes what
//! a query costs, never what it returns.
//!
//! One seeded, model-based harness holds every query path to it. Each
//! sequence opens one store, the system under test, with a drawn
//! decoded-GOP cache budget (none, a fraction of one GOP, or unbounded) and
//! decode worker count (1 or 4), then applies random steps: queries (car,
//! odd-edged "speck" boxes or `any_of`, a window, an ROI inside the frame
//! or past its edge, stride, limit, Pixels/Count/Exists, optionally `AS OF`
//! a pinned epoch) through `Tasm::query`, a `QueryService` fan-out of 1–4
//! copies whose decodes join, or a `Connection` to a `TasmServer` on
//! loopback; `observe_regret` and `observe_more`; re-tiles of one SOT to
//! untiled, uniform 4×4 or KQKO; pins and unpins.
//!
//! A serial, uncached twin store takes the same mutating steps, so its
//! layout epochs line up with the store under test. Every answer must equal
//! `tasm_suite::Reference`'s over the twin at the epoch it executed against
//! (the current one, or the pinned one for `AS OF`): the index's boxes,
//! filtered, each the crop of its frame stitched from whole-tile decodes of
//! the twin's packs, outside the executor and outside the store under test,
//! so a pack of that store damaged after its pin fails too. The twin also
//! gives what
//! pixels cannot: every answer must carry the twin's plan, and account for
//! every planned GOP and sample as decoded or reused exactly once. After every step the cache keeps its budget, the
//! disk holds exactly the live epochs' packs, and a drained epoch answers
//! `EpochNotLive`. A failure names the seed, sequence, step and operation.

use proptest::{run_cases, seed_for};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tasm_client::{Connection, RemoteOutcome};
use tasm_codec::{DecodeStats, TileLayout};
use tasm_core::{
    EpochPin, LabelPredicate, PlanStats, Query, QueryMode, RegionPixels, ScanResult, TasmConfig,
    TasmError, VideoManifest,
};
use tasm_obs::sync;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{QueryRequest, QueryService, ServiceConfig, Shutdown};
use tasm_suite::{config, ingest, scene, Reference, TestStore};
use tasm_video::Rect;

const W: u32 = 128;
const H: u32 = 96;
const FRAMES: u32 = 40;
const GOP: u32 = 5;
/// Decoded bytes of one GOP of the untiled layout's one tile.
const GOP_BYTES: u64 = (W * H * 3 / 2 * GOP) as u64;

/// (sequences, steps per sequence): debug builds keep `cargo test`
/// affordable, release builds run the full width.
fn scale() -> (u32, usize) {
    if cfg!(debug_assertions) {
        (4, 40)
    } else {
        (32, 100)
    }
}

fn predicates() -> [LabelPredicate; 3] {
    [
        LabelPredicate::label("car"),
        LabelPredicate::label("speck"),
        LabelPredicate::any_of(&["person", "speck"]),
    ]
}

/// Boxes the scene's objects never make, on every frame: odd edges, one a
/// pixel into the next column of a 4×4 layout, one a pixel into the next
/// row, one past the frame's corner.
fn specks(f: u32) -> [Rect; 3] {
    [
        Rect::new(W / 4 - 1, 1 + 2 * f, 7, 5),
        Rect::new(3 + 3 * f, H / 3 - 1, 5, 7),
        Rect::new(W - 3, H - 9 + f % 7, 9, 11),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Path {
    Direct,
    Fanout(usize),
    Wire,
}

#[derive(Debug, Clone, Copy)]
enum Target {
    Untiled,
    Uniform4x4,
    Kqko(&'static str),
}

#[derive(Debug)]
enum Op {
    /// One of `predicates()`, narrowed as `query` says.
    Query {
        query: Query,
        path: Path,
    },
    Observe {
        more: bool,
        label: &'static str,
        frames: Range<u32>,
    },
    Retile {
        sot: usize,
        to: Target,
    },
    Pin,
    /// Drops the pin at this index.
    Unpin(usize),
}

fn window(rng: &mut StdRng) -> Range<u32> {
    let start = rng.gen_range(0..FRAMES);
    start..start + rng.gen_range(1..FRAMES + 8)
}

fn draw_query(rng: &mut StdRng, pinned: &[u64]) -> Op {
    let pred = rng.gen_range(0..3usize);
    let mut query = Query::new(predicates()[pred].clone()).frames(window(rng));
    if rng.gen_bool(0.5) {
        // Half the ROIs reach past the right or bottom edge.
        let (x, y) = (rng.gen_range(0..W), rng.gen_range(0..H));
        let (w, h) = if rng.gen_bool(0.5) {
            (rng.gen_range(1..W - x + 1), rng.gen_range(1..H - y + 1))
        } else {
            (rng.gen_range(1..W), rng.gen_range(1..H))
        };
        query = query.roi(Rect::new(x, y, w, h));
    }
    if rng.gen_bool(0.4) {
        query = query.stride(rng.gen_range(2..8u32));
    }
    if rng.gen_bool(0.3) {
        query = query.limit(rng.gen_range(1..6u32));
    }
    query = query.mode(match rng.gen_range(0..6u32) {
        0 => QueryMode::Count,
        1 => QueryMode::Exists,
        _ => QueryMode::Pixels,
    });
    if !pinned.is_empty() && rng.gen_bool(0.5) {
        query = query.as_of(pinned[rng.gen_range(0..pinned.len())]);
    }
    let path = match rng.gen_range(0..3u32) {
        0 => Path::Direct,
        1 => Path::Fanout(rng.gen_range(1..5usize)),
        _ => Path::Wire,
    };
    Op::Query { query, path }
}

fn draw(rng: &mut StdRng, pinned: &[u64]) -> Op {
    let label = ["car", "person"][rng.gen_range(0..2usize)];
    match rng.gen_range(0..20u32) {
        0..=11 => draw_query(rng, pinned),
        12 => Op::Observe {
            more: rng.gen_bool(0.5),
            label,
            frames: window(rng),
        },
        13..=15 => Op::Retile {
            sot: rng.gen_range(0..2usize),
            to: [Target::Untiled, Target::Uniform4x4, Target::Kqko(label)]
                [rng.gen_range(0..3usize)],
        },
        16 | 17 => Op::Pin,
        _ if pinned.is_empty() => Op::Pin,
        _ => Op::Unpin(rng.gen_range(0..pinned.len())),
    }
}

/// What every query path reports, in one shape.
struct Answer {
    regions: Vec<RegionPixels>,
    matched: u64,
    epoch: u64,
    plan: PlanStats,
    /// Samples decoded, and served from the decoded-GOP cache.
    decoded: u64,
    reused: u64,
    /// The whole decode account, wall time aside; the wire carries only
    /// its sample count.
    stats: Option<DecodeStats>,
    hits: u64,
    misses: u64,
    owned: u64,
}

impl Answer {
    fn local(r: &mut ScanResult) -> Answer {
        Answer {
            regions: std::mem::take(&mut r.regions),
            matched: r.matched,
            epoch: r.epoch,
            plan: r.plan,
            decoded: r.stats.samples_decoded,
            reused: r.cache.samples_reused,
            stats: Some(DecodeStats {
                decode_time: Duration::ZERO,
                ..r.stats
            }),
            hits: r.cache.hits,
            misses: r.cache.misses,
            owned: r.shared.owned,
        }
    }

    fn wire(r: RemoteOutcome) -> Answer {
        Answer {
            regions: r.regions,
            matched: r.matched,
            epoch: r.epoch,
            plan: r.plan,
            decoded: r.summary.samples_decoded,
            reused: r.summary.samples_reused,
            stats: None,
            hits: r.summary.cache_hits,
            misses: r.summary.cache_misses,
            owned: r.summary.shared.owned,
        }
    }
}

/// A pinned epoch: the store under test's pin and the twin's.
type Pinned = (EpochPin, EpochPin);

/// The pack a manifest's SOT reads through (rc 0 is the unstamped ingest
/// epoch): the store's on-disk naming contract.
fn packs(manifest: &VideoManifest) -> impl Iterator<Item = String> + '_ {
    manifest.sots.iter().map(|s| match s.retile_count {
        0 => format!("sot_{:06}_{:06}.tiles", s.start, s.end),
        rc => format!("sot_{:06}_{:06}_r{rc:06}.tiles", s.start, s.end),
    })
}

/// One sequence's stores and serving paths. The serving paths and the
/// reference are declared (and so dropped) before the stores they hold.
struct Sequence {
    service: QueryService,
    server: TasmServer,
    conn: Connection,
    pins: Vec<Pinned>,
    reference: Reference,
    budget: u64,
    sut: TestStore,
    twin: TestStore,
}

impl Sequence {
    fn open(tag: &str, budget: u64, workers: usize) -> Sequence {
        let mut cfg = config();
        (cfg.storage.gop_len, cfg.storage.sot_frames) = (GOP, FRAMES / 2);
        cfg.eta = 0.05; // regret re-tiles within a sequence
        let sut = TestStore::open(
            tag,
            TasmConfig {
                workers,
                cache_bytes: budget,
                ..cfg.clone()
            },
        );
        let twin = TestStore::open(
            &format!("{tag}-twin"),
            TasmConfig {
                cache_bytes: 0,
                ..cfg
            },
        );
        let video = scene(W, H, FRAMES, 33);
        for store in [&sut, &twin] {
            ingest(store, "v", &video);
            for f in 0..FRAMES {
                for speck in specks(f) {
                    store.add_metadata("v", "speck", f, speck).unwrap();
                }
            }
        }
        let service_cfg = |workers| ServiceConfig {
            workers,
            queue_depth: 8,
            ..Default::default()
        };
        let service = QueryService::start(Arc::clone(&sut), service_cfg(4));
        let server = TasmServer::bind(
            Arc::clone(&sut),
            service_cfg(2),
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .expect("bind");
        let conn = Connection::connect(server.local_addr()).expect("connect");
        Sequence {
            service,
            server,
            conn,
            pins: Vec::new(),
            reference: Reference::new(&twin),
            budget,
            sut,
            twin,
        }
    }

    fn current_epoch(&self) -> u64 {
        self.sut.current_epoch("v").unwrap()
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Query { query, path } => self.query(query, *path),
            Op::Observe {
                more,
                label,
                frames,
            } => {
                for t in [&self.sut, &self.twin] {
                    let frames = frames.clone();
                    let observed = if *more {
                        t.observe_more("v", label, frames)
                    } else {
                        t.observe_regret("v", label, frames)
                    };
                    observed.unwrap();
                }
            }
            Op::Retile { sot, to } => {
                for t in [&self.sut, &self.twin] {
                    let layout = match to {
                        Target::Untiled => Some(TileLayout::untiled(W, H)),
                        Target::Uniform4x4 => Some(TileLayout::uniform(W, H, 4, 4).unwrap()),
                        Target::Kqko(label) => {
                            t.kqko_layout("v", *sot, &[label.to_string()]).unwrap()
                        }
                    };
                    if let Some(layout) = layout {
                        t.retile("v", *sot, layout).unwrap();
                    }
                }
            }
            Op::Pin => self.pins.push((
                self.sut.pin_epoch("v", None).unwrap(),
                self.twin.pin_epoch("v", None).unwrap(),
            )),
            Op::Unpin(i) => {
                let epoch = self.pins.swap_remove(*i).0.epoch();
                if epoch != self.current_epoch() && self.pins.iter().all(|p| p.0.epoch() != epoch) {
                    let q = Query::new(LabelPredicate::label("car")).as_of(epoch);
                    let drained = self.sut.query("v", &q);
                    assert!(
                        matches!(drained, Err(TasmError::EpochNotLive { .. })),
                        "drained epoch {epoch} answered"
                    );
                }
            }
        }
        self.check_store();
    }

    /// Every answer `path` gives `query` against the reference's over the
    /// twin and the twin's plan.
    fn query(&mut self, query: &Query, path: Path) {
        let current;
        let pin = match query.as_of_epoch() {
            Some(e) => &self.pins.iter().find(|p| p.0.epoch() == e).unwrap().1,
            None => {
                current = self.twin.pin_epoch("v", None).unwrap();
                &current
            }
        };
        let (epoch, expected) = (pin.epoch(), self.reference.answer(pin, query));
        let twin = Answer::local(&mut self.twin.query("v", query).unwrap());
        let answers = match path {
            Path::Direct => vec![Answer::local(&mut self.sut.query("v", query).unwrap())],
            Path::Fanout(n) => {
                let submit = |_| {
                    self.service
                        .submit(QueryRequest::new("v", query.clone()))
                        .unwrap()
                };
                let handles: Vec<_> = (0..n).map(submit).collect();
                handles
                    .into_iter()
                    .map(|h| Answer::local(&mut h.wait().unwrap().result))
                    .collect()
            }
            Path::Wire => vec![Answer::wire(self.conn.query("v", query).unwrap())],
        };
        if self.budget == u64::MAX {
            // Nothing is ever given back: copies decode each GOP once, and
            // a repeat decodes nothing.
            let owned: u64 = answers.iter().map(|a| a.owned).sum();
            assert!(owned <= twin.plan.gops_planned, "{owned} GOPs decoded");
            let again = Answer::local(&mut self.sut.query("v", query).unwrap());
            assert_eq!(
                (again.decoded, again.hits),
                (0, twin.plan.gops_planned),
                "repeat"
            );
        }
        for a in answers {
            assert_eq!(a.epoch, epoch, "executed epoch");
            expected.check(a.matched, &a.regions, "not the reference's answer");
            if query.query_mode() != QueryMode::Pixels {
                assert_eq!((a.decoded, a.misses), (0, 0), "aggregates decode nothing");
            }
            assert_eq!(a.plan, twin.plan, "plan");
            assert_eq!(
                a.owned + a.hits,
                a.plan.gops_planned,
                "each planned GOP decoded or served once"
            );
            assert_eq!(
                a.decoded + a.reused,
                twin.decoded,
                "samples decoded or reused"
            );
            if self.budget == 0 && a.stats.is_some() {
                assert_eq!(a.stats, twin.stats, "uncached decode work");
            }
        }
    }

    /// The store-wide invariants that hold between steps.
    fn check_store(&self) {
        let current = self.current_epoch();
        assert_eq!(
            self.twin.current_epoch("v").unwrap(),
            current,
            "the twin's epoch"
        );
        let mut live: BTreeSet<u64> = self.pins.iter().map(|p| p.0.epoch()).collect();
        live.insert(current);
        assert_eq!(
            self.sut.live_epochs("v").unwrap(),
            Vec::from_iter(live),
            "live epochs"
        );
        let manifest = self.sut.manifest("v").unwrap();
        let mut held: BTreeSet<String> = packs(&manifest).collect();
        for p in &self.pins {
            held.extend(packs(p.0.manifest()));
        }
        let on_disk: BTreeSet<String> = std::fs::read_dir(self.sut.dir.path().join("v"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("sot_"))
            .collect();
        assert_eq!(on_disk, held, "packs on disk");
        if let Some(cache) = self.sut.store().decoded_cache() {
            assert!(
                cache.bytes_used() <= self.budget,
                "{} cached bytes",
                cache.bytes_used()
            );
        }
    }

    /// Drains the serving paths and pins, then checks both stores.
    fn finish(mut self) {
        self.pins.clear();
        self.check_store();
        self.conn.goodbye().expect("goodbye");
        assert_eq!(self.server.shutdown().service.stats.failed, 0);
        assert_eq!(self.service.shutdown(Shutdown::Drain).stats.failed, 0);
        for store in [&self.sut, &self.twin] {
            let report = store.fsck().unwrap();
            assert!(report.is_clean(), "fsck: {:?}", report.issues);
        }
    }
}

/// Where each lane is. The panic hook prints it, so any failure — an
/// assertion here, or a panic on a decode, service or server thread, even
/// one that ends in an abort — names the seed, sequence, step and operation.
static LANES: Mutex<[String; 2]> = Mutex::new([String::new(), String::new()]);

fn at(lane: usize, position: String) {
    sync::lock(&LANES)[lane] = position;
}

/// One lane: a seeded run of `sequences` sequences of `steps` steps.
fn run_lane(lane: usize, sequences: u32, steps: usize) {
    let seed = seed_for(&format!("contract-{lane}"));
    let mut seq = 0;
    run_cases(sequences, seed, |rng| {
        let budget = [0, GOP_BYTES / 3, u64::MAX][rng.gen_range(0..3usize)];
        let workers = [1, 4][rng.gen_range(0..2usize)];
        let what = format!("seed {seed:#x}, sequence {seq} (budget {budget}, workers {workers})");
        at(lane, format!("{what}, opening"));
        let mut sequence = Sequence::open(&format!("contract-{lane}"), budget, workers);
        for step in 0..steps {
            let pinned: Vec<u64> = sequence.pins.iter().map(|p| p.0.epoch()).collect();
            let op = draw(rng, &pinned);
            at(lane, format!("{what}, step {step}: {op:?}"));
            sequence.apply(&op);
        }
        at(lane, format!("{what}, finishing"));
        sequence.finish();
        seq += 1;
    });
}

/// Runs the sequences in two lanes, one per core of a small CI runner.
#[test]
fn queries_equal_the_post_filtered_scan_at_their_epoch() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let lanes = sync::lock(&LANES);
        for (lane, position) in lanes.iter().enumerate() {
            eprintln!("contract lane {lane}: {position}");
        }
        report(info);
    }));
    let (sequences, steps) = scale();
    std::thread::scope(|scope| {
        for lane in 0..2 {
            let thread = std::thread::Builder::new().name(format!("contract lane {lane}"));
            let run = move || run_lane(lane, sequences / 2, steps);
            thread.spawn_scoped(scope, run).expect("spawn a lane");
        }
    });
}

/// A cache budget that holds part of the fixed sequence's working set.
const PARTIAL: u64 = 5 * GOP_BYTES;

/// The decode, cache, shared-scan and plan counters a run sums, times left
/// out.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    decode: [u64; 5],
    cache: [u64; 4],
    shared: [u64; 2],
    plan: [u64; 5],
}

impl Counts {
    fn add(&mut self, r: &ScanResult) {
        let s = &r.stats;
        let decoded = [
            s.frames_decoded,
            s.samples_decoded,
            s.tile_chunks_decoded,
            s.bytes_read,
            s.blocks_decoded,
        ];
        let c = &r.cache;
        let cached = [c.hits, c.misses, c.frames_reused, c.samples_reused];
        let p = &r.plan;
        let planned = [
            p.tiles_planned,
            p.tiles_pruned,
            p.gops_planned,
            p.gops_skipped,
            p.frames_sampled,
        ];
        let sums = [
            (&mut self.decode[..], &decoded[..]),
            (&mut self.cache[..], &cached[..]),
            (&mut self.shared[..], &[r.shared.owned, r.shared.joined][..]),
            (&mut self.plan[..], &planned[..]),
        ];
        for (sum, add) in sums {
            sum.iter_mut().zip(add).for_each(|(s, a)| *s += a);
        }
    }
}

/// A fixed sequence of scans, queries and re-tiles on a fresh store
/// (`tag`) of `budget` cache bytes and `workers` decode threads. Every
/// answer is held to the reference at its epoch; returns the counters
/// summed over all of them.
fn fixed_sequence(tag: &str, budget: u64, workers: usize) -> Counts {
    let mut cfg = config();
    (cfg.storage.gop_len, cfg.storage.sot_frames) = (GOP, FRAMES / 2);
    let store = TestStore::open(
        &format!("contract-{tag}-{budget}-{workers}"),
        TasmConfig {
            workers,
            cache_bytes: budget,
            ..cfg
        },
    );
    ingest(&store, "v", &scene(W, H, FRAMES, 33));
    for f in 0..FRAMES {
        for speck in specks(f) {
            store.add_metadata("v", "speck", f, speck).unwrap();
        }
    }
    let [car, speck, any] = predicates();
    let queries = [
        Query::new(any.clone())
            .frames(5..33)
            .roi(Rect::new(20, 10, 60, 50))
            .stride(3),
        Query::new(speck.clone()).limit(4),
        Query::new(car.clone())
            .frames(12..38)
            .roi(Rect::new(64, 0, 64, H))
            .stride(2),
    ];
    let mut reference = Reference::new(&store);
    let mut counts = Counts::default();
    let mut answer = |r: ScanResult, q: &Query, what: &str| {
        reference.check("v", q, &r, what);
        counts.add(&r);
    };
    let mut round = || {
        for (i, p) in [&car, &speck, &any].into_iter().enumerate() {
            let scan = Query::new(p.clone()).frames(0..FRAMES);
            let r = store.scan("v", p, 0..FRAMES).unwrap();
            answer(r, &scan, &format!("scan {i}"));
        }
        for (i, q) in queries.iter().enumerate() {
            answer(store.query("v", q).unwrap(), q, &format!("query {i}"));
        }
    };
    round();
    store
        .retile("v", 0, TileLayout::uniform(W, H, 4, 4).unwrap())
        .unwrap();
    round();
    let kqko = store.kqko_layout("v", 1, &["car".to_string()]).unwrap();
    store
        .retile("v", 1, kqko.expect("cars cross SOT 1"))
        .unwrap();
    round();
    round();
    counts
}

/// Every region a scan or query returns is the crop of its frame stitched
/// from whole-tile decodes, under each cache budget (none, five GOPs,
/// unbounded) at one and two decode workers; and what the sequence
/// decodes, reuses, owns and plans at each budget, one worker, is pinned:
/// the same work whatever the executor keeps or composes.
#[test]
fn every_region_is_the_crop_of_its_frame_stitched_from_whole_tile_decodes() {
    let mut serial = Vec::new();
    for budget in [0, PARTIAL, u64::MAX] {
        serial.push(fixed_sequence("oracle", budget, 1));
        fixed_sequence("oracle", budget, 2);
    }
    let want = [
        Counts {
            decode: [1797, 7340544, 1797, 245309, 114696],
            cache: [0, 0, 0, 0],
            shared: [376, 0],
            plan: [129, 49, 376, 87, 496],
        },
        Counts {
            decode: [1321, 5746944, 1321, 178837, 89796],
            cache: [86, 290, 476, 1593600],
            shared: [290, 0],
            plan: [129, 49, 376, 87, 496],
        },
        Counts {
            decode: [305, 1336320, 305, 43301, 20880],
            cache: [315, 61, 1492, 6004224],
            shared: [61, 0],
            plan: [129, 49, 376, 87, 496],
        },
    ];
    assert_eq!(serial, want, "budgets none, five GOPs, unbounded");
}

/// A zero-width box at an odd coordinate, alone on its frame, answers with
/// the crop of the rectangle it aligns out to, from a tiled SOT and an
/// untiled one, through scan and query alike: the tiles are planned from
/// the rectangle the answer is composed over.
#[test]
fn a_lone_zero_width_box_answers_with_its_aligned_crop() {
    let mut cfg = config();
    (cfg.storage.gop_len, cfg.storage.sot_frames) = (GOP, FRAMES / 2);
    let store = TestStore::open("contract-sliver", cfg);
    ingest(&store, "v", &scene(W, H, FRAMES, 33));
    store
        .retile("v", 0, TileLayout::uniform(W, H, 4, 4).unwrap())
        .unwrap();
    for f in [2, 25] {
        store
            .add_metadata("v", "sliver", f, Rect::new(3, 3, 0, 4))
            .unwrap();
    }
    let sliver = LabelPredicate::label("sliver");
    let scanned = store.scan("v", &sliver, 0..FRAMES).unwrap();
    let query = Query::new(sliver);
    let queried = store.query("v", &query).unwrap();
    let mut reference = Reference::new(&store);
    for (r, what) in [(scanned, "scan"), (queried, "query")] {
        let frames: Vec<u32> = r.regions.iter().map(|g| g.frame).collect();
        assert_eq!(frames, [2, 25], "{what}");
        assert!(r.regions.iter().all(|g| g.pixels.width() == 2), "{what}");
        reference.check("v", &query, &r, what);
    }
}
