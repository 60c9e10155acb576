//! `cold_select`: in-process `Tasm::query` on the tuned store, one caller,
//! serial decode, no decoded-GOP cache. The paper's headline number — query
//! time = index lookup + tile decode on a tuned layout. `tasm-codec` and
//! `tasm-core::{storage, exec}` do nearly all the work; cache, service,
//! proto, reactor and cluster do none.

use super::{Args, Outcome};
use crate::corpus::{self, StoreSizes, TunedStore};
use crate::drive::{self, Local};
use crate::pace::Pacer;
use crate::{procfs, requests};
use std::path::Path;

pub const NAME: &str = "cold_select";

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let seeds = corpus::corpus_seeds();
    let mut pacer = Pacer::new();
    let (store, reps) = super::repeat_setup(
        args,
        scratch,
        &mut pacer,
        |dir, pacer| TunedStore::build(dir, &seeds, corpus::serial_uncached(), pacer),
        |store| Some(store),
        drop,
    );

    let names = store.names();
    let mut plan = requests::select_mix(
        &mut args.request_rng(),
        args.requests(NAME),
        names.len(),
        store.videos[0].frame_count,
        store.frame_dims(),
    );
    requests::shuffle(&mut args.order_rng(), &mut plan);

    let handles = vec![&store.tasm; names.len()];
    let window = drive::run_window(&mut Local(&store.tasm), &names, &plan, &mut pacer);
    let paced = pacer.finish();

    let mut out = Outcome::new();
    out.read_window(&window, &store, &reps, &paced);
    out.failed += drive::verify(&window.results, &plan, &names, &handles);
    out.failed += super::fsck_failures(&[&store.tasm]);
    let live = super::live_epochs_max(&store.tasm);
    out.layers.insert("tasm.live_epochs_max", live as f64);
    let threads = procfs::status("Threads:");
    out.layers.insert("reactor.threads", threads as f64);

    if out.layers["exec.cache_hit_ratio"] != 0.0 {
        let what = "the decoded-GOP cache served hits".to_string();
        return Err(super::misconfigured(NAME, what));
    }

    if args.traced {
        let index = (&store.dirs, &store.tasm);
        out.trace(
            args,
            &mut Local(&store.tasm),
            &names,
            &plan,
            &handles,
            index,
        )?;
    }
    let sizes = StoreSizes::measure(&store.tasm, &store.dirs, store.raw_bytes());
    super::size_metrics(&mut out.e2e, &mut out.layers, &sizes);
    out.e2e.insert("peak_rss_mb", procfs::peak_rss_mb());
    out.config.push(("decode_workers", "1".into()));
    out.config.push(("cache_bytes", "0".into()));
    out.config.push(("clients", "1".into()));
    Ok(out)
}
