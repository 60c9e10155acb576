//! The closed-loop driver shared by the read workloads: targets (in-process
//! facade or a wire connection), the timed window, what the ledger keeps of
//! every reply, the traced pass and the layer probes.

use crate::oracle;
use crate::pace::{Paced, Pacer};
use crate::requests::Request;
use crate::schema::Values;
use crate::spans::Recorder;
use crate::stats;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};
use tasm_client::Connection;
use tasm_core::{PlanStats, Query, RegionPixels, Tasm};

/// BUSY is retryable backpressure; a request that is still refused after
/// this many attempts counts as failed.
const BUSY_ATTEMPTS: u32 = 6;

/// The phase durations a server reports with a reply, microseconds.
#[derive(Clone, Default)]
pub struct ServerTrace {
    pub instance: String,
    pub queue: u64,
    pub plan: u64,
    pub execute: u64,
    pub stream: u64,
    pub total: u64,
}

/// What the ledger keeps of one completed request.
#[derive(Clone, Default)]
pub struct Obs {
    /// When the request was sent, on the pacer's clock (timed windows only).
    pub at_ns: u64,
    pub latency_ns: u64,
    /// Present on the requests the oracle samples.
    pub digest: Option<u64>,
    pub region_bytes: u64,
    pub plan: PlanStats,
    pub samples_decoded: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub joined: u64,
    pub lookup_us: u64,
    pub exec_us: u64,
    /// Decode time inside `exec_us`; only the in-process facade reports it.
    pub decode_us: u64,
    pub server: Option<ServerTrace>,
}

pub struct Reply {
    pub regions: Vec<RegionPixels>,
    pub obs: Obs,
}

fn region_bytes(regions: &[RegionPixels]) -> u64 {
    regions.iter().map(|r| r.pixels.sample_count()).sum()
}

/// Something a request can be sent to.
pub trait Target: Send {
    fn call(&mut self, video: &str, query: &Query) -> Result<Reply, String>;
}

/// The in-process facade.
pub struct Local<'a>(pub &'a Tasm);

impl Target for Local<'_> {
    fn call(&mut self, video: &str, query: &Query) -> Result<Reply, String> {
        let r = self.0.query(video, query).map_err(|e| e.to_string())?;
        let obs = Obs {
            region_bytes: region_bytes(&r.regions),
            plan: r.plan,
            samples_decoded: r.stats.samples_decoded,
            cache_hits: r.cache.hits,
            cache_misses: r.cache.misses,
            joined: r.shared.joined,
            lookup_us: r.lookup_time.as_micros() as u64,
            exec_us: r.exec_time.as_micros() as u64,
            decode_us: r.stats.decode_time.as_micros() as u64,
            ..Obs::default()
        };
        Ok(Reply {
            regions: r.regions,
            obs,
        })
    }
}

/// One blocking wire session, to a server or to a router.
pub struct Remote(pub Connection);

impl Target for Remote {
    fn call(&mut self, video: &str, query: &Query) -> Result<Reply, String> {
        let mut attempts = 1;
        let r = loop {
            match self.0.query(video, query) {
                Ok(r) => break r,
                Err(e) if e.is_busy() && attempts < BUSY_ATTEMPTS => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e.to_string()),
            }
        };
        let obs = Obs {
            region_bytes: region_bytes(&r.regions),
            plan: r.plan,
            samples_decoded: r.summary.samples_decoded,
            cache_hits: r.summary.cache_hits,
            cache_misses: r.summary.cache_misses,
            joined: r.summary.shared.joined,
            lookup_us: r.summary.lookup_micros,
            exec_us: r.summary.exec_micros,
            server: r.trace.map(|t| ServerTrace {
                instance: t.instance,
                queue: t.queue_micros,
                plan: t.plan_micros,
                execute: t.decode_micros,
                stream: t.stream_micros,
                total: t.total_micros,
            }),
            ..Obs::default()
        };
        Ok(Reply {
            regions: r.regions,
            obs,
        })
    }
}

/// Sends one request and reduces the reply to an [`Obs`] (and the regions,
/// for the oracle). The latency is the caller-observed time of the call
/// alone.
pub fn issue(
    target: &mut dyn Target,
    names: &[String],
    request: &Request,
) -> Result<(Obs, Vec<RegionPixels>), String> {
    let query = request.query();
    let t = Instant::now();
    let reply = target.call(&names[request.video], &query)?;
    let latency_ns = t.elapsed().as_nanos() as u64;
    let mut obs = reply.obs;
    obs.latency_ns = latency_ns;
    Ok((obs, reply.regions))
}

/// [`issue`] inside a timed window: stamps the request with the pacer's
/// clock, digests a sampled reply outside the window's segments, and lets
/// the pacer run the ticks that are due before the next request.
pub fn issue_paced(
    target: &mut dyn Target,
    names: &[String],
    digest: bool,
    request: &Request,
    pacer: &mut Pacer,
) -> Result<Obs, String> {
    let at_ns = pacer.now_ns();
    let result = issue(target, names, request).map(|(mut obs, regions)| {
        obs.at_ns = at_ns;
        if digest {
            obs.digest = Some(pacer.untimed(|| oracle::digest(&regions)));
        }
        obs
    });
    pacer.pace();
    result
}

/// The outcome of a timed window.
pub struct Window {
    /// One entry per request, in request order; `Err` for a failed one.
    pub results: Vec<Result<Obs, String>>,
    /// From mark to mark on the pacer's clock.
    pub span: Range<u64>,
}

impl Window {
    pub fn ok(&self) -> impl Iterator<Item = &Obs> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    pub fn errors(&self) -> u64 {
        self.results.iter().filter(|r| r.is_err()).count() as u64
    }

    /// Reference-speed latencies of the completed requests.
    pub fn latencies_ms(&self, paced: &Paced) -> Vec<f64> {
        self.ok().map(|o| paced.ms(o.at_ns, o.latency_ns)).collect()
    }
}

/// Runs the fixed request list as a closed loop of one client: each request
/// waits for the reply to the one before. (One client, because the sandbox
/// has two cores: a second one makes the result depend on how many of them
/// the host lends at the moment.)
pub fn run_window(
    target: &mut dyn Target,
    names: &[String],
    requests: &[Request],
    pacer: &mut Pacer,
) -> Window {
    let every = oracle::sample_every(requests.len());
    let start = pacer.mark();
    let results = requests
        .iter()
        .enumerate()
        .map(|(i, r)| issue_paced(target, names, i % every == 0, r, pacer))
        .collect();
    Window {
        results,
        span: start..pacer.mark(),
    }
}

/// Checks every sampled reply against the oracle (`references[v]` is the
/// handle that answers for video `v`); returns the mismatches.
pub fn verify(
    results: &[Result<Obs, String>],
    requests: &[Request],
    names: &[String],
    references: &[&Tasm],
) -> u64 {
    let mut mismatches = 0;
    for (obs, request) in results.iter().zip(requests) {
        let Ok(Obs {
            digest: Some(got), ..
        }) = obs
        else {
            continue;
        };
        let want = oracle::expected(references[request.video], &names[request.video], request);
        if *got != want {
            mismatches += 1;
        }
    }
    mismatches
}

/// The end-to-end metrics every workload derives from its timed window,
/// all at reference speed: `latencies_ms` from [`Window::latencies_ms`],
/// the window's product time and CPU time from [`Paced::busy`].
pub fn window_metrics(e2e: &mut Values, latencies_ms: &[f64], (wall_s, cpu_s): (f64, f64)) {
    let n = latencies_ms.len() as f64;
    e2e.insert("query_p50_ms", stats::percentile(latencies_ms, 0.50));
    e2e.insert("query_p95_ms", stats::percentile(latencies_ms, 0.95));
    e2e.insert("queries_per_s", stats::ratio(n, wall_s));
    e2e.insert("cpu_ms_per_query", stats::ratio(cpu_s * 1e3, n));
}

fn p50(values: impl Iterator<Item = u64>) -> f64 {
    stats::median(&values.map(|v| v as f64).collect::<Vec<_>>())
}

/// The per-layer metrics that are counts and reported durations of the
/// replies themselves (`PlanStats`, `CacheStats`, `ResultSummary`, traces).
pub fn reply_metrics(layers: &mut Values, obs: &[&Obs], latencies_ms: &[f64]) {
    let n = obs.len() as f64;
    let sum = |f: fn(&Obs) -> u64| obs.iter().map(|o| f(o)).sum::<u64>() as f64;
    let (hits, misses) = (sum(|o| o.cache_hits), sum(|o| o.cache_misses));
    let (planned, pruned) = (sum(|o| o.plan.tiles_planned), sum(|o| o.plan.tiles_pruned));
    let (gops, skipped) = (sum(|o| o.plan.gops_planned), sum(|o| o.plan.gops_skipped));
    layers.insert(
        "codec.samples_decoded_per_query",
        sum(|o| o.samples_decoded) / n,
    );
    layers.insert("exec.cache_hit_ratio", stats::ratio(hits, hits + misses));
    layers.insert(
        "exec.cache_join_ratio",
        stats::ratio(sum(|o| o.joined), hits + misses),
    );
    layers.insert("exec.exec_us_p50", p50(obs.iter().map(|o| o.exec_us)));
    layers.insert("query.tiles_planned_per_query", planned / n);
    layers.insert(
        "query.tiles_pruned_ratio",
        stats::ratio(pruned, planned + pruned),
    );
    layers.insert(
        "query.gops_skipped_ratio",
        stats::ratio(skipped, gops + skipped),
    );
    layers.insert("query.plan_us_p50", p50(obs.iter().map(|o| o.lookup_us)));
    layers.insert("proto.region_bytes_per_query", sum(|o| o.region_bytes) / n);
    if latencies_ms.len() >= 1000 {
        layers.insert("client.query_p99_ms", stats::percentile(latencies_ms, 0.99));
    }
    let served: Vec<(&Obs, &ServerTrace)> = obs
        .iter()
        .filter_map(|o| o.server.as_ref().map(|s| (*o, s)))
        .collect();
    if served.is_empty() {
        return;
    }
    let session_us = |s: &ServerTrace| s.total + s.stream;
    layers.insert(
        "service.queue_wait_us_p50",
        p50(served.iter().map(|(_, s)| s.queue)),
    );
    layers.insert("query.plan_us_p50", p50(served.iter().map(|(_, s)| s.plan)));
    layers.insert(
        "server.stream_us_p50",
        p50(served.iter().map(|(_, s)| s.stream)),
    );
    layers.insert(
        "server.total_us_p50",
        p50(served.iter().map(|(_, s)| session_us(s))),
    );
    let beyond_server = p50(served
        .iter()
        .map(|(o, s)| (o.latency_ns / 1_000).saturating_sub(session_us(s))));
    layers.insert("proto.wire_us_p50", beyond_server);
    let stream_s: f64 = served.iter().map(|(_, s)| s.stream as f64 / 1e6).sum();
    layers.insert(
        "proto.stream_mb_per_s",
        stats::ratio(sum(|o| o.region_bytes) / 1e6, stream_s),
    );
    let mut per_shard: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, s) in &served {
        *per_shard.entry(s.instance.as_str()).or_insert(0) += 1;
    }
    let busiest = per_shard.values().copied().max().unwrap_or(0);
    layers.insert(
        "router.shard_share_max",
        stats::ratio(busiest as f64, served.len() as f64),
    );
}

/// One (SOT, tile) the planner would decode for a request, with the local
/// frame span it needs.
pub struct PlannedTile {
    pub sot_idx: usize,
    pub tile: u32,
    pub local_span: std::ops::Range<u32>,
}

/// The ledger's replica of the planner's tile selection, from the public
/// index and manifest: boxes of the label in the window, narrowed by ROI
/// and stride, mapped to the tiles of each SOT's layout. (With one GOP per
/// SOT — the default storage configuration — a tile's needed GOPs are
/// always one contiguous run.)
pub fn planned_tiles(tasm: &Tasm, video: &str, request: &Request) -> Vec<PlannedTile> {
    let manifest = tasm.manifest(video).expect("manifest");
    let id = tasm.video_id(video).expect("video id");
    let frames = request.frames.start..request.frames.end.min(manifest.frame_count);
    let detections = tasm
        .with_index(|ix| ix.query(id, request.label, frames.clone()))
        .expect("index query");
    let mut tiles: BTreeMap<(usize, u32), (u32, u32)> = BTreeMap::new();
    for d in detections {
        let on_stride = (d.frame - frames.start).is_multiple_of(request.stride);
        let in_roi = request.roi.is_none_or(|roi| d.bbox.intersects(&roi));
        if !(on_stride && in_roi) {
            continue;
        }
        let sot_idx = manifest.sot_for_frame(d.frame).expect("frame has a SOT");
        let sot = &manifest.sots[sot_idx];
        let local = d.frame - sot.start;
        for tile in sot.layout.tiles_intersecting(&d.bbox) {
            let span = tiles.entry((sot_idx, tile)).or_insert((local, local));
            *span = (span.0.min(local), span.1.max(local));
        }
    }
    tiles
        .into_iter()
        .map(|((sot_idx, tile), (lo, hi))| PlannedTile {
            sot_idx,
            tile,
            local_span: lo..hi + 1,
        })
        .collect()
}

/// Timings from calling the storage and codec layers' public functions
/// directly, for the tiles a request's plan names.
#[derive(Default)]
pub struct TileProbe {
    pub lookup_us: Vec<f64>,
    pub tile_read_us: Vec<f64>,
    pub tile_bytes: u64,
    pub decode_s: f64,
    pub samples: u64,
    pub requests: u64,
}

impl TileProbe {
    /// Probes one request; returns the time spent reading its tiles (ns)
    /// and how many tiles the replica plan named.
    pub fn request(&mut self, tasm: &Tasm, video: &str, request: &Request) -> (u64, u64) {
        let id = tasm.video_id(video).expect("video id");
        let t = Instant::now();
        let found = tasm.with_index(|ix| ix.query(id, request.label, request.frames.clone()));
        self.lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
        found.expect("index query");

        let manifest = tasm.manifest(video).expect("manifest");
        let plan = planned_tiles(tasm, video, request);
        let mut read_ns = 0;
        for p in &plan {
            let t = Instant::now();
            let tile = tasm
                .store()
                .read_tile(&manifest, p.sot_idx, p.tile)
                .expect("read_tile");
            let dt = t.elapsed();
            read_ns += dt.as_nanos() as u64;
            self.tile_read_us.push(dt.as_secs_f64() * 1e6);
            self.tile_bytes += tile.size_bytes();
            let (frames, st) = tile
                .decode_range(p.local_span.clone())
                .expect("decode_range");
            std::hint::black_box(frames);
            self.decode_s += st.decode_time.as_secs_f64();
            self.samples += st.samples_decoded;
        }
        self.requests += 1;
        (read_ns, plan.len() as u64)
    }

    pub fn metrics(&self, layers: &mut Values) {
        layers.insert("index.lookup_us_p50", stats::median(&self.lookup_us));
        layers.insert(
            "storage.tile_read_us_p50",
            stats::median(&self.tile_read_us),
        );
        layers.insert(
            "storage.tile_bytes_read_per_query",
            stats::ratio(self.tile_bytes as f64, self.requests as f64),
        );
        layers.insert(
            "codec.decode_us_per_mpixel",
            stats::ratio(self.decode_s * 1e6, self.samples as f64 / 1e6),
        );
    }
}

/// Records one request's span tree: the end-to-end call as the root, and
/// below it the durations the reply reported. The part of a span no child
/// covers is that span's self time.
///
/// Returns the time the facade spent outside index lookup and decode
/// execution — planning and crop/stitch reassembly — in microseconds.
pub fn record_request(
    rec: &mut Recorder,
    idx: u32,
    start_ns: u64,
    obs: &Obs,
    tile_read_ns: u64,
) -> f64 {
    let end_ns = start_ns + obs.latency_ns;
    match &obs.server {
        None => {
            // Self time of the root: planning and crop/stitch reassembly
            // inside the facade, not separable from outside.
            let root = rec.add("tasm.query", idx, None, start_ns, end_ns);
            let mut cursor = start_ns;
            rec.add_reported("index.lookup", root, &mut cursor, obs.lookup_us);
            let exec = rec.add_reported("exec.execute", root, &mut cursor, obs.exec_us);
            let mut inner = rec.spans[exec].start_ns;
            rec.add_reported("storage.tile_read", exec, &mut inner, tile_read_ns / 1_000);
            rec.add_reported("codec.decode", exec, &mut inner, obs.decode_us);
            (obs.latency_ns / 1_000).saturating_sub(obs.lookup_us + obs.exec_us) as f64
        }
        Some(s) => {
            // Self time of the root: request encode, both socket
            // directions, client parse — and the router hop when routed.
            let root = rec.add("client.request", idx, None, start_ns, end_ns);
            let session_ns = (s.total + s.stream) * 1_000;
            let mut cursor = start_ns + obs.latency_ns.saturating_sub(session_ns) / 2;
            // Self time of the session: scheduling gaps between phases.
            let session = rec.add_reported("server.session", root, &mut cursor, s.total + s.stream);
            let mut cursor = rec.spans[session].start_ns;
            rec.add_reported("service.queue", session, &mut cursor, s.queue);
            let plan = rec.add_reported("query.plan", session, &mut cursor, s.plan);
            let mut inner = rec.spans[plan].start_ns;
            rec.add_reported("index.lookup", plan, &mut inner, obs.lookup_us);
            // Self time of query.execute: planning and crop/stitch; of
            // exec.execute: cache lookups, tile reads and any decode (the
            // wire summary does not split them).
            let execute = rec.add_reported("query.execute", session, &mut cursor, s.execute);
            let mut inner = rec.spans[execute].start_ns;
            rec.add_reported("exec.execute", execute, &mut inner, obs.exec_us);
            rec.add_reported("server.stream", session, &mut cursor, s.stream);
            s.execute.saturating_sub(obs.exec_us) as f64
        }
    }
}

/// Spans whose self time is a remainder no layer accounts for.
const REMAINDERS: [&str; 2] = ["tasm.query", "server.session"];

/// How many of the first timed requests the traced pass replays.
pub const TRACED_REQUESTS: usize = 200;

pub struct Traced {
    pub recorder: Recorder,
    /// Failed replays, plus replies whose `PlanStats` named a different
    /// number of tiles than the probe's replica of the plan.
    pub failed: u64,
}

/// The traced pass, from one client, over the first [`TRACED_REQUESTS`]
/// timed requests: probe the layers below each request directly; replay the
/// requests with the recorder off; replay them with it on, recording a span
/// tree per request. `handles[v]` is the handle that stores video `v`.
pub fn traced_pass(
    target: &mut dyn Target,
    names: &[String],
    requests: &[Request],
    handles: &[&Tasm],
    layers: &mut Values,
) -> Traced {
    let sample = &requests[..requests.len().min(TRACED_REQUESTS)];
    let mut probe = TileProbe::default();
    let probed: Vec<(u64, u64)> = sample
        .iter()
        .map(|r| probe.request(handles[r.video], &names[r.video], r))
        .collect();
    probe.metrics(layers);

    let mut failed = 0;
    let t = Instant::now();
    for r in sample {
        failed += issue(target, names, r).is_err() as u64;
    }
    let untraced_s = t.elapsed().as_secs_f64();

    let mut recorder = Recorder::new();
    let mut reassembly_us = Vec::with_capacity(sample.len());
    let t = Instant::now();
    for (i, (r, &(read_ns, planned))) in sample.iter().zip(&probed).enumerate() {
        let start_ns = recorder.now_ns();
        let Ok((obs, _)) = issue(target, names, r) else {
            failed += 1;
            continue;
        };
        failed += (obs.plan.tiles_planned != planned) as u64;
        // On a cached store only the misses read tiles, and the wire
        // summary does not say which: the read span is in-process only.
        let read_ns = if obs.server.is_none() { read_ns } else { 0 };
        reassembly_us.push(record_request(
            &mut recorder,
            i as u32,
            start_ns,
            &obs,
            read_ns,
        ));
    }
    let traced_s = t.elapsed().as_secs_f64();

    let selves = recorder.self_times();
    let total = recorder.root_total() as f64;
    let remainder: u64 = REMAINDERS.iter().filter_map(|n| selves.get(n)).sum();
    layers.insert(
        "trace.unattributed_share",
        stats::ratio(remainder as f64, total),
    );
    layers.insert("trace.overhead_ratio", stats::ratio(traced_s, untraced_s));
    layers.insert("exec.reassembly_us_p50", stats::median(&reassembly_us));
    Traced { recorder, failed }
}

/// The per-layer self-time table of a traced pass, one line per span name.
pub fn layer_table(rec: &Recorder) -> Vec<(String, f64, f64)> {
    let total = rec.root_total() as f64;
    let requests = rec.spans.iter().filter(|s| s.parent.is_none()).count() as f64;
    rec.self_times()
        .into_iter()
        .map(|(name, ns)| {
            (
                name.to_string(),
                stats::ratio(ns as f64 / 1e3, requests),
                stats::ratio(ns as f64, total),
            )
        })
        .collect()
}
