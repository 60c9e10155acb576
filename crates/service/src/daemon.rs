//! The background re-tiling daemon.
//!
//! Workers append an [`Observation`] per completed (query, label) to a
//! backlog; this single low-priority thread drains it and feeds the
//! observations to the configured incremental policy through
//! `Tasm::observe`. Re-tiles triggered here
//! never queue behind scans: a re-tile commits a new MVCC layout epoch
//! immediately, while in-flight queries keep reading the epoch they pinned
//! at plan time — queries keep their bit-exact guarantee and the layout
//! converges in the background instead of on the query path. Superseded
//! epochs are garbage-collected once their last reader drains.
//!
//! Every re-tile runs the storage layer's atomic commit protocol
//! (`tasm_core::storage`), so killing the process while this daemon is
//! draining its backlog can never leave a video torn between two layout
//! epochs: startup recovery at the next open rolls the interrupted re-tile
//! forward or back, and shutdown ([`crate::Shutdown::Drain`]) completes the
//! backlog before the daemon exits. A re-tile that fails (e.g. the disk
//! died mid-commit) is counted in `ServiceStats::retile_errors` and does
//! not take the daemon down; nor does one that panics, which is counted
//! the same way and logged as `retile.panicked`.

use crate::service::Shared;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Duration;
use tasm_obs::sync;

/// One completed query the layout policies should learn from.
#[derive(Debug, Clone)]
pub(crate) struct Observation {
    pub video: String,
    pub label: String,
    pub frames: Range<u32>,
}

/// The longest the idle daemon sleeps before it looks at the backlog and
/// the shutdown flag again. A push and a shutdown both notify it, so this
/// only bounds a wakeup that raced the check.
const IDLE_WAIT: Duration = Duration::from_millis(20);

pub(crate) fn daemon_loop(shared: &Shared) {
    loop {
        let batch: Vec<Observation> = {
            let mut backlog = sync::lock(&shared.backlog);
            while backlog.is_empty() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                backlog = sync::wait_timeout(&shared.backlog_cv, backlog, IDLE_WAIT).0;
            }
            backlog.drain(..).collect()
        };
        process_observations(shared, batch);
    }
}

/// Feeds a batch of observations to the configured policy, accounting
/// re-tiles and errors. Shared by the daemon thread and
/// `QueryService::drain_retile_backlog`.
///
/// A panic inside the policy costs its observation only: the facade's
/// locks recover from it (the policy's is reset, the commit lock is taken
/// as is), so the daemon goes on with the next observation.
pub(crate) fn process_observations(shared: &Shared, batch: Vec<Observation>) {
    for obs in batch {
        let failed = |event: &str, error: String| {
            shared.stats.retile_errors.fetch_add(1, Ordering::Relaxed);
            let fields = [
                ("video", obs.video.clone()),
                ("label", obs.label.clone()),
                ("error", error),
            ];
            tasm_obs::log::error(event, &fields);
        };
        let (video, label, policy) = (&obs.video, &obs.label, shared.cfg.retile);
        let observe = || {
            shared
                .tasm
                .observe(video, policy, label, obs.frames.clone())
        };
        let stats = match catch_unwind(AssertUnwindSafe(observe)) {
            Ok(Ok(stats)) => stats,
            Ok(Err(e)) => {
                failed("retile.failed", e.to_string());
                continue;
            }
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                failed("retile.panicked", what);
                continue;
            }
        };
        if stats.encode.bytes_produced == 0 {
            continue;
        }
        // Replication hook before the op is counted: the re-tile is only
        // reported durable once every backup acked the new layout epoch.
        if let Some(Err(e)) = shared.hook.as_ref().map(|hook| hook.retiled(video)) {
            let fields = [("video", video.clone()), ("error", e)];
            tasm_obs::log::error("retile.replication_failed", &fields);
            shared.stats.retile_errors.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        shared.stats.retile_ops.fetch_add(1, Ordering::Relaxed);
        let bytes = stats.encode.bytes_produced.to_string();
        tasm_obs::log::debug(
            "retile.committed",
            &[("video", obs.video), ("label", obs.label), ("bytes", bytes)],
        );
    }
}
