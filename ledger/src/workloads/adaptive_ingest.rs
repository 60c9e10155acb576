//! `adaptive_ingest`: single-threaded and in-process on a fresh **untiled**
//! store with a small index memtable. A §5.3 Workload-3-style sequence
//! (target shifts from cars to people midway) calls `Tasm::query` then
//! `Tasm::observe_regret` inline — the paper's cumulative-time experiment —
//! and after every `CLIP_EVERY`-th query ingests one pre-rendered clip.
//! The same layers as the read workloads, the other way round: codec
//! encode, index inserts / WAL / run flush / compaction, the storage commit
//! protocol with its fsyncs, epoch publish and GC. Single-threaded so its
//! counts repeat exactly.

use super::{Args, Outcome};
use crate::corpus::{
    self, BuildProbe, Scene, StoreDirs, StoreSizes, VideoInfo, FPS, VIDEO_SECONDS,
};
use crate::drive::{self, Local, Obs};
use crate::pace::Pacer;
use crate::{oracle, procfs, requests, stats};
use std::path::Path;
use tasm_core::{Tasm, TasmConfig};

pub const NAME: &str = "adaptive_ingest";
/// One clip is ingested after every this many queries.
const CLIP_EVERY: usize = 60;
/// Divides `CLIP_EVERY`, so a request never moves ahead of the ingest of
/// the clip it names.
const SHUFFLE_RUN: usize = 20;
const CLIP_SECONDS: u32 = 1;
const QUERY_FRAMES: u32 = 15;
/// Small enough that every clip's detections flush at least one run.
const MEMTABLE_LIMIT: usize = 128;

struct Fresh {
    dirs: StoreDirs,
    tasm: Tasm,
    videos: Vec<VideoInfo>,
    clips: Vec<Scene>,
    probe: BuildProbe,
}

fn setup(dir: &Path, seeds: &[u64], clip_seeds: &[u64], pacer: &mut Pacer) -> Fresh {
    let dirs = StoreDirs {
        root: dir.to_path_buf(),
    };
    let tasm = dirs.open(TasmConfig {
        index_memtable_limit: Some(MEMTABLE_LIMIT),
        ..corpus::serial_uncached()
    });
    let mut probe = BuildProbe::default();
    let videos = corpus::build(&tasm, &dirs, seeds, false, &mut probe, pacer);
    let clips = clip_seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| corpus::render(&format!("clip{i}"), CLIP_SECONDS, seed, &mut probe))
        .collect();
    Fresh {
        dirs,
        tasm,
        videos,
        clips,
        probe,
    }
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let rng = args.request_rng();
    let seeds = corpus::corpus_seeds();
    let n = args.requests(NAME);
    let mut clip_rng = rng.fork(3);
    let clip_seeds: Vec<u64> = (0..n / CLIP_EVERY)
        .map(|_| clip_rng.next_u64() >> 16)
        .collect();

    let mut pacer = Pacer::new();
    let (fresh, reps) = super::repeat_setup(
        args,
        scratch,
        &mut pacer,
        |dir, pacer| setup(dir, &seeds, &clip_seeds, pacer),
        |_| None,
        drop,
    );
    let Fresh {
        dirs,
        tasm,
        mut videos,
        clips,
        probe: setup_probe,
    } = fresh;

    let base = videos.len();
    let base_frames = VIDEO_SECONDS * FPS;
    let mut plan = requests::adaptive_sequence(
        &mut rng.fork(2),
        n,
        |i| base + (i / CLIP_EVERY).min(clips.len()),
        |v| {
            if v < base {
                base_frames
            } else {
                CLIP_SECONDS * FPS
            }
        },
        QUERY_FRAMES,
    );
    // The seed orders the requests within short runs: which SOT crosses
    // its regret threshold first depends on the order, and a re-tile moves
    // every later latency on that SOT.
    let mut order = args.order_rng();
    for run in plan.chunks_mut(SHUFFLE_RUN) {
        requests::shuffle(&mut order, run);
    }
    let mut names: Vec<String> = videos.iter().map(|v| v.name.clone()).collect();
    names.extend(clips.iter().map(|c| c.name.clone()));

    let every = oracle::sample_every(n);
    let mut probe = BuildProbe {
        runs: setup_probe.runs.restart(),
        ..BuildProbe::default()
    };
    let mut results: Vec<Result<Obs, String>> = Vec::with_capacity(n);
    let (mut mismatches, mut live_max) = (0u64, 1usize);
    let mut observe_us = Vec::with_capacity(n);
    let start = pacer.mark();
    for (i, request) in plan.iter().enumerate() {
        let name = &names[request.video];
        let sampled = i % every == 0;
        let obs = drive::issue_paced(&mut Local(&tasm), &names, sampled, request, &mut pacer);
        if let Ok(Obs {
            digest: Some(got), ..
        }) = &obs
        {
            // Checked before anything can re-tile: the reference scan sees
            // the layout epoch the query saw.
            let want = pacer.untimed(|| oracle::expected(&tasm, name, request));
            mismatches += (*got != want) as u64;
        }
        results.push(obs);

        let (secs, committed) = probe.retile_call(&tasm, name, &mut pacer, || {
            tasm.observe_regret(name, request.label, request.frames.clone())
                .expect("observe_regret")
        });
        if !committed {
            observe_us.push(secs * 1e6);
        }
        live_max = live_max.max(tasm.live_epochs(name).map_or(0, |e| e.len()));

        if (i + 1) % CLIP_EVERY == 0 {
            if let Some(clip) = clips.get(i / CLIP_EVERY) {
                videos.push(corpus::ingest(&tasm, &dirs, clip, &mut probe, &mut pacer));
            }
        }
    }
    let window = drive::Window {
        results,
        span: start..pacer.mark(),
    };
    let paced = pacer.finish();

    let mut out = Outcome::new();
    let latencies = window.latencies_ms(&paced);
    let obs: Vec<_> = window.ok().collect();
    drive::window_metrics(&mut out.e2e, &latencies, paced.busy(&window.span));
    drive::reply_metrics(&mut out.layers, &obs, &latencies);
    let slowdown = paced.mean_slowdown(&window.span);
    out.layers.insert("machine.slowdown", slowdown);
    super::build_metrics(&mut out.layers, &probe);
    let fps = corpus::units_per_s(&paced, &probe.ingests);
    out.e2e.insert("ingest_fps", fps);
    let retile_ms = corpus::ms_per_unit(&paced, &probe.retiles);
    out.e2e.insert("retile_ms_per_sot", retile_ms);
    out.e2e.insert("setup_s", reps.setup_s(&paced));
    out.config
        .push(("setup_reps", reps.spans.len().to_string()));
    out.layers.insert(
        "data.render_ms_per_frame",
        stats::ratio(
            setup_probe.render_s * 1e3,
            setup_probe.frames_rendered as f64,
        ),
    );
    out.layers
        .insert("tasm.observe_us_p50", stats::median(&observe_us));
    out.layers.insert("tasm.live_epochs_max", live_max as f64);
    out.layers
        .insert("reactor.threads", procfs::status("Threads:") as f64);

    let still_live = super::live_epochs_max(&tasm);
    let (flushes, compactions) = (probe.runs.flushes, probe.runs.compactions);
    if flushes < 3 || compactions < 1 || probe.sot_retiles < 2 || still_live != 1 {
        return Err(super::misconfigured(
            NAME,
            format!(
                "{flushes} index run flushes (>= 3), {compactions} compactions (>= 1), {} committed re-tiles (>= 2), {still_live} live epochs per video at the end (1)",
                probe.sot_retiles
            ),
        ));
    }

    out.attempted = n as u64;
    out.failed = window.errors() + mismatches + super::fsck_failures(&[&tasm]);
    if args.traced {
        // The read path below the facade, on the store as the window left it.
        let handles = vec![&tasm; names.len()];
        out.trace(
            args,
            &mut Local(&tasm),
            &names,
            &plan,
            &handles,
            (&dirs, &tasm),
        )?;
    }
    let raw_bytes = videos.iter().map(|v| v.raw_bytes).sum();
    let sizes = StoreSizes::measure(&tasm, &dirs, raw_bytes);
    super::size_metrics(&mut out.e2e, &mut out.layers, &sizes);
    out.e2e.insert("peak_rss_mb", procfs::peak_rss_mb());
    out.config.push(("decode_workers", "1".into()));
    out.config.push(("cache_bytes", "0".into()));
    out.config.push(("clients", "1".into()));
    out.config
        .push(("index_memtable_limit", MEMTABLE_LIMIT.to_string()));
    out.config.push(("clips_ingested", clips.len().to_string()));
    Ok(out)
}
