//! Rebalancing: moving a video between shards without interrupting — or
//! corrupting — the query stream.
//!
//! The move reuses the staged-commit shape of the storage layer's retile
//! protocol, lifted to the cluster:
//!
//! 1. **Copy** — the source primary is asked (`PushVideo`) to replicate
//!    the video in full to the target; the target installs it with the
//!    atomic manifest-publish protocol and acks.
//! 2. **Verify** — the source's and target's canonical manifest JSON must
//!    be byte-identical: both nodes hold the same layout at the same
//!    epochs, which (with verbatim tile bytes) makes their answers
//!    bit-identical.
//! 3. **Flip** — the shard map pins the video to its new replica set and
//!    bumps the epoch; the save is a temp-file + rename, so routers
//!    reload either the old placement or the new one, never a torn map.
//!    This is the commit point.
//! 4. **GC** — the node leaving the replica set drops its copy
//!    (`RemoveVideo`). The shard drains in-flight scans by epoch refcount
//!    — each query holds a reader pin on the MVCC layout epoch it planned
//!    against, and the remove waits until the last pin drops — so a query
//!    routed before the flip completes bit-exactly.
//!
//! A crash before the flip leaves an extra, unreferenced copy on the
//! target (re-running the rebalance converges); a crash after the flip
//! leaves the source copy for a later GC. Neither intermediate state can
//! serve wrong bytes.

use crate::map::ShardMap;
use std::path::Path;
use std::time::Duration;
use tasm_client::Connection;

/// What a completed rebalance did.
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// The moved video.
    pub video: String,
    /// Replica node ids before the move (first = primary).
    pub from: Vec<String>,
    /// Replica node ids after the move (first = the new primary).
    pub to: Vec<String>,
    /// The shard-map epoch the flip published.
    pub epoch: u64,
    /// Nodes whose copy was garbage-collected.
    pub removed: Vec<String>,
}

/// Moves `video` so that node `to` becomes its primary, following the
/// copy → verify → flip → GC protocol above. `timeout` bounds every
/// socket operation against the nodes involved.
pub fn rebalance(
    map_path: &Path,
    video: &str,
    to: &str,
    timeout: Duration,
) -> Result<RebalanceReport, String> {
    let mut map = ShardMap::load(map_path).map_err(|e| e.to_string())?;
    let target = map
        .node(to)
        .ok_or_else(|| format!("unknown target node '{to}'"))?
        .clone();
    let current: Vec<(String, String)> = map
        .replica_set(video)
        .into_iter()
        .map(|n| (n.id.clone(), n.addr.clone()))
        .collect();
    let source = current
        .first()
        .cloned()
        .ok_or_else(|| "empty replica set".to_string())?;
    if source.0 == to {
        return Err(format!("'{video}' is already primary on '{to}'"));
    }

    // Copy: the source owns the bytes and drives the full sync; its ack
    // covers the target's durable install.
    let mut src = connect(&source.1, timeout)?;
    if !current.iter().any(|(id, _)| id == to) {
        src.push_video(video, &target.addr)
            .map_err(|e| format!("copy to '{to}' failed: {e}"))?;
    }

    // Verify: canonical manifest bytes must match before any flip.
    let want = src
        .manifest(video)
        .map_err(|e| format!("source manifest read failed: {e}"))?;
    let mut dst = connect(&target.addr, timeout)?;
    let got = dst
        .manifest(video)
        .map_err(|e| format!("target manifest read failed: {e}"))?;
    if want != got {
        return Err(format!(
            "verify failed: source and target manifests differ ({} vs {} bytes)",
            want.len(),
            got.len()
        ));
    }

    // Flip: the new set is the target followed by the old backups; the
    // old primary leaves. The atomic save is the commit point.
    let replicas = map.replicas as usize;
    let mut new_set: Vec<String> = vec![to.to_string()];
    for (id, _) in current.iter().skip(1) {
        if new_set.len() == replicas {
            break;
        }
        if id != to {
            new_set.push(id.clone());
        }
    }
    map.pin(video, new_set.clone());
    map.save(map_path).map_err(|e| e.to_string())?;
    let epoch = map.epoch;

    // GC: every node that left the set drops its copy. The flip already
    // happened — a GC failure (e.g. the old primary died) leaves only a
    // harmless unreferenced copy, reported but not fatal.
    let mut removed = Vec::new();
    for (id, addr) in &current {
        if new_set.contains(id) {
            continue;
        }
        let gc = connect(addr, timeout).and_then(|mut conn| {
            conn.remove_video(video)
                .map_err(|e| format!("remove on '{id}' failed: {e}"))
        });
        if gc.is_ok() {
            removed.push(id.clone());
        }
    }

    Ok(RebalanceReport {
        video: video.to_string(),
        from: current.into_iter().map(|(id, _)| id).collect(),
        to: new_set,
        epoch,
        removed,
    })
}

fn connect(addr: &str, timeout: Duration) -> Result<Connection, String> {
    Connection::dial(addr, timeout).map_err(|e| format!("node at {addr} unreachable: {e}"))
}
