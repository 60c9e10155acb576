//! `warm_serve`: one reactor `TasmServer` on loopback, one wire
//! connection, the `cold_select` query mix, and a decoded-GOP cache that
//! holds the whole working set after an untimed warm-up. Decode is ~0, so
//! time goes to index lookup, cache hit + crop/reassembly, region encode,
//! the reactor's socket writes and client parse — and a codec speed-up must
//! show **no change** here.

use super::{Args, Outcome};
use crate::corpus::{self, StoreSizes, TunedStore};
use crate::drive::{self, Remote};
use crate::pace::Pacer;
use crate::requests::{self, Request};
use crate::{procfs, stats};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tasm_client::Connection;
use tasm_core::{Tasm, TasmConfig};
use tasm_server::{ServeEngine, ServerConfig, TasmServer};
use tasm_service::{QueryRequest, QueryService, ServiceConfig, Shutdown};

pub const NAME: &str = "warm_serve";
const CACHE_BYTES: u64 = 512 << 20;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

struct Served {
    store: TunedStore,
    tasm: Arc<Tasm>,
    server: TasmServer,
    client: Connection,
}

fn setup(dir: &Path, seeds: &[u64], pacer: &mut Pacer) -> Served {
    let cached = TasmConfig {
        cache_bytes: CACHE_BYTES,
        ..corpus::serial_uncached()
    };
    let mut store = TunedStore::build(dir, seeds, cached, pacer);
    // The server shares the store's handle; `store.tasm` is replaced by a
    // serial, uncached second handle for the oracle (a contended open: it
    // defers recovery to the live owner).
    let (reference, _) = corpus::reopen(&store.dirs, corpus::serial_uncached(), &store.videos);
    let tasm = Arc::new(std::mem::replace(&mut store.tasm, reference));
    let server = TasmServer::bind(
        Arc::clone(&tasm),
        service_config(),
        ServerConfig {
            engine: ServeEngine::Reactor,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback server");
    let mut client = Connection::connect(server.local_addr()).expect("connect");
    super::warm_up(&mut client, &store.videos);
    Served {
        store,
        tasm,
        server,
        client,
    }
}

/// Drains the server through its shutdown path.
fn stop(server: TasmServer, client: Connection) -> tasm_server::ServerReport {
    let _ = client.goodbye();
    server.shutdown()
}

/// In-process `submit` → `wait` against a direct `Tasm::query` on the same
/// warm requests: what the service's queue and worker hand-off cost.
fn service_overhead(tasm: &Arc<Tasm>, names: &[String], sample: &[Request]) -> f64 {
    let service = QueryService::start(Arc::clone(tasm), service_config());
    let (mut direct, mut queued) = (Vec::new(), Vec::new());
    for r in sample {
        let t = Instant::now();
        tasm.query(&names[r.video], &r.query())
            .expect("direct query");
        direct.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        service
            .submit(QueryRequest::new(names[r.video].clone(), r.query()))
            .expect("submit")
            .wait()
            .expect("service query");
        queued.push(t.elapsed().as_secs_f64() * 1e6);
    }
    service.shutdown(Shutdown::Drain);
    stats::median(&queued) - stats::median(&direct)
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let seeds = corpus::corpus_seeds();
    let mut pacer = Pacer::new();
    let (served, reps) = super::repeat_setup(
        args,
        scratch,
        &mut pacer,
        |dir, pacer| setup(dir, &seeds, pacer),
        |served| Some(&served.store),
        |served| {
            stop(served.server, served.client);
        },
    );
    let Served {
        store,
        tasm,
        server,
        client,
    } = served;

    let names = store.names();
    let mut plan = requests::select_mix(
        &mut args.request_rng(),
        args.requests(NAME),
        names.len(),
        store.videos[0].frame_count,
        store.frame_dims(),
    );
    requests::shuffle(&mut args.order_rng(), &mut plan);

    let mut target = Remote(client);
    let window = drive::run_window(&mut target, &names, &plan, &mut pacer);
    let paced = pacer.finish();
    let threads = procfs::status("Threads:");

    let mut out = Outcome::new();
    out.read_window(&window, &store, &reps, &paced);
    let references = vec![&store.tasm; names.len()];
    out.failed += drive::verify(&window.results, &plan, &names, &references);
    out.failed += super::fsck_failures(&[&tasm]);
    let live = super::live_epochs_max(&tasm);
    out.layers.insert("tasm.live_epochs_max", live as f64);
    out.layers.insert("reactor.threads", threads as f64);
    let cache = tasm.store().decoded_cache();
    let cache_used = cache.map_or(0, |c| c.bytes_used());
    out.layers
        .insert("exec.cache_bytes_used", cache_used as f64);
    let queue_peak = server.stats().queue_peak;
    out.layers.insert("service.queue_peak", queue_peak as f64);

    let hit_ratio = out.layers["exec.cache_hit_ratio"];
    if hit_ratio < 0.99 {
        let what = format!("cache hit ratio {hit_ratio:.3} after warm-up, expected >= 0.99");
        return Err(super::misconfigured(NAME, what));
    }

    if args.traced {
        let handles = vec![tasm.as_ref(); names.len()];
        let index = (&store.dirs, tasm.as_ref());
        out.trace(args, &mut target, &names, &plan, &handles, index)?;
        let sample = &plan[..plan.len().min(drive::TRACED_REQUESTS)];
        let overhead = service_overhead(&tasm, &names, sample);
        out.layers.insert("service.overhead_us_p50", overhead);
    }
    let sizes = StoreSizes::measure(&tasm, &store.dirs, store.raw_bytes());
    super::size_metrics(&mut out.e2e, &mut out.layers, &sizes);
    out.config.push(("decode_workers", "1".into()));
    out.config.push(("service_workers", "1".into()));
    out.config.push(("cache_bytes", CACHE_BYTES.to_string()));
    out.config.push(("clients", "1".into()));

    let report = stop(server, target.0);
    let busy = report.busy_rejections;
    out.layers.insert("server.busy_rejects", busy as f64);
    let refused = report.connection_rejections;
    out.layers
        .insert("server.connections_rejected", refused as f64);
    out.e2e.insert("peak_rss_mb", procfs::peak_rss_mb());
    Ok(out)
}
