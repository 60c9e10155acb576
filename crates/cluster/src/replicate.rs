//! Primary→backup replication: shipping manifests, tile bytes, and
//! semantic-index state so a backup answers bit-identically at the same
//! layout epoch.
//!
//! The unit of replication is the [`ReplicationRecord`]. A full video sync
//! is `StageSot*` (raw tile-file bytes, chunked under the wire's frame
//! cap) closed by one `CommitVideo`, plus one `IndexState`; a re-tile
//! ships the changed SOT as `StageSot* CommitSot`. Tile bytes travel
//! *verbatim* — the backup's tile files are byte-identical to the
//! primary's, so a failed-over replica decodes the same pixels the primary
//! would have, which is exactly the cluster's bit-exactness claim.
//!
//! Records are acknowledged: [`Replicator`] waits for the receiver's
//! `ReplicateAck` after every record, and the retile daemon's
//! [`ReplicatorHook`] only lets a re-tile count as durable once every
//! backup acked its commit record (`ServiceStats::retile_errors` counts
//! the ones that didn't).
//!
//! Commit records are idempotent by layout epoch: a backup that already
//! holds a SOT at `retile_count ≥ epoch` skips the record, so replays
//! (primary retry after a dropped ack) converge instead of regressing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tasm_client::{ClientError, Connection};
use tasm_core::{Tasm, VideoManifest};
use tasm_obs::sync;
use tasm_proto::{ReplicatedDetection, ReplicationRecord};
use tasm_service::RetileHook;

/// Soft cap on the tile bytes packed into one `StageSot` chunk, leaving
/// ample headroom under `tasm_proto::MAX_FRAME_LEN` for framing.
const STAGE_CHUNK_BYTES: usize = 8 << 20;

/// How long a push waits for a backup to connect, and for each read or
/// write after it: the rebalance command's default node timeout.
const REPLICATION_TIMEOUT: Duration = Duration::from_secs(30);

/// A receiving session's staging area: tile bytes that have arrived in
/// `StageSot` records but whose commit record hasn't landed yet.
/// Consecutive records for the same `(video, SOT)` append in order, so a
/// chunked SOT reassembles exactly as sent.
#[derive(Default)]
pub struct StagedSots {
    staged: HashMap<(String, u32), Vec<Vec<u8>>>,
}

impl StagedSots {
    /// An empty staging area.
    pub fn new() -> StagedSots {
        StagedSots::default()
    }

    /// Appends a chunk of tile bytes for `(video, sot_idx)`.
    pub fn stage(&mut self, video: &str, sot_idx: u32, tiles: Vec<Vec<u8>>) {
        self.staged
            .entry((video.to_string(), sot_idx))
            .or_default()
            .extend(tiles);
    }

    /// Removes and returns the staged tiles of `(video, sot_idx)`.
    pub fn take(&mut self, video: &str, sot_idx: u32) -> Option<Vec<Vec<u8>>> {
        self.staged.remove(&(video.to_string(), sot_idx))
    }

    /// Discards any leftover staged chunks of `video` (commit applied, or
    /// the session ended mid-sync).
    pub fn drop_video(&mut self, video: &str) {
        self.staged.retain(|(v, _), _| v != video);
    }
}

/// Applies one replication record on the receiving node. `staged` is the
/// session's staging area for tile bytes that have arrived but whose
/// commit record hasn't. Returns a human-readable error when the record
/// cannot be applied (the session turns it into a typed error frame; the
/// primary counts the failed ack).
pub fn apply_record(
    tasm: &Tasm,
    staged: &mut StagedSots,
    record: ReplicationRecord,
) -> Result<(), String> {
    match record {
        ReplicationRecord::StageSot {
            video,
            sot_idx,
            tiles,
        } => {
            staged.stage(&video, sot_idx, tiles);
            Ok(())
        }
        ReplicationRecord::CommitVideo {
            epoch: _,
            video,
            manifest,
        } => {
            let manifest: VideoManifest = parse_manifest(&manifest)?;
            if manifest.name != video {
                return Err(format!(
                    "commit names video '{video}' but manifest says '{}'",
                    manifest.name
                ));
            }
            let mut sots = Vec::with_capacity(manifest.sots.len());
            for i in 0..manifest.sots.len() {
                sots.push(
                    staged
                        .take(&video, i as u32)
                        .ok_or_else(|| format!("commit for '{video}' is missing staged SOT {i}"))?,
                );
            }
            staged.drop_video(&video);
            tasm.apply_replicated_video(manifest, &sots)
                .map(|_| ())
                .map_err(|e| format!("install failed: {e}"))
        }
        ReplicationRecord::CommitSot {
            epoch: _,
            video,
            sot_idx,
            manifest,
        } => {
            let manifest: VideoManifest = parse_manifest(&manifest)?;
            let tiles = staged
                .take(&video, sot_idx)
                .ok_or_else(|| format!("commit for '{video}' SOT {sot_idx} has no staged tiles"))?;
            tasm.apply_replicated_sot(manifest, sot_idx as usize, &tiles)
                .map(|_applied| ())
                .map_err(|e| format!("SOT install failed: {e}"))
        }
        ReplicationRecord::IndexState {
            video,
            detections,
            processed,
        } => apply_index_state(tasm, &video, &detections, &processed),
    }
}

fn parse_manifest(bytes: &[u8]) -> Result<VideoManifest, String> {
    serde_json::from_slice(bytes).map_err(|e| format!("manifest does not parse: {e}"))
}

/// Installs replicated index state. Idempotent at sync granularity: a
/// video that already has detector-processed frames is assumed indexed
/// (re-syncing would double every detection) and the record is a no-op.
fn apply_index_state(
    tasm: &Tasm,
    video: &str,
    detections: &[ReplicatedDetection],
    processed: &[u32],
) -> Result<(), String> {
    let frames = tasm
        .manifest(video)
        .map_err(|e| format!("unknown video: {e}"))?
        .frame_count;
    let already = tasm
        .processed_count(video, 0..frames)
        .map_err(|e| format!("index read failed: {e}"))?;
    if already > 0 {
        return Ok(());
    }
    for d in detections {
        tasm.add_metadata(video, &d.label, d.frame, d.rect)
            .map_err(|e| format!("add_metadata failed: {e}"))?;
    }
    for &f in processed {
        tasm.mark_processed(video, f)
            .map_err(|e| format!("mark_processed failed: {e}"))?;
    }
    // The ack says the state is durable: out of the index's write buffer
    // and into its log, as `detect` leaves it.
    tasm.with_index(|ix| ix.flush())
        .map_err(|e| format!("index flush failed: {e}"))
}

/// Reads a video's canonical manifest JSON — the bytes replica
/// verification compares across nodes. Serialization goes through the
/// same `serde_json::to_vec_pretty` the store writes with, so two nodes
/// holding equal manifests produce equal bytes.
pub fn manifest_json(tasm: &Tasm, video: &str) -> Result<Vec<u8>, String> {
    let manifest = tasm.manifest(video).map_err(|e| e.to_string())?;
    serde_json::to_vec_pretty(&manifest).map_err(|e| e.to_string())
}

/// Collects a video's full semantic-index state for replication.
fn index_state(tasm: &Tasm, video: &str) -> Result<ReplicationRecord, String> {
    let frames = tasm.manifest(video).map_err(|e| e.to_string())?.frame_count;
    let id = tasm.video_id(video).map_err(|e| e.to_string())?;
    let (detections, processed) = tasm.with_index(|ix| {
        let dets = ix
            .query_all(id, 0..frames)
            .map_err(|e| format!("index query failed: {e:?}"))?;
        let detections = dets
            .into_iter()
            .map(|d| ReplicatedDetection {
                label: d.label,
                frame: d.frame,
                rect: d.bbox,
            })
            .collect::<Vec<_>>();
        let mut processed = Vec::new();
        for f in 0..frames {
            let n = ix
                .processed_count(id, f..f + 1)
                .map_err(|e| format!("index read failed: {e:?}"))?;
            if n > 0 {
                processed.push(f);
            }
        }
        Ok::<_, String>((detections, processed))
    })?;
    Ok(ReplicationRecord::IndexState {
        video: video.to_string(),
        detections,
        processed,
    })
}

/// Splits one SOT's tile bytes into `StageSot` records respecting the
/// chunk cap (each record carries whole tiles; a single oversized tile
/// still travels alone and is bounded by the store's own tile sizing).
fn stage_chunks(video: &str, sot_idx: u32, tiles: &[Vec<u8>]) -> Vec<ReplicationRecord> {
    let mut out = Vec::new();
    let mut chunk: Vec<Vec<u8>> = Vec::new();
    let mut bytes = 0usize;
    for t in tiles {
        if !chunk.is_empty() && bytes + t.len() > STAGE_CHUNK_BYTES {
            out.push(ReplicationRecord::StageSot {
                video: video.to_string(),
                sot_idx,
                tiles: std::mem::take(&mut chunk),
            });
            bytes = 0;
        }
        bytes += t.len();
        chunk.push(t.clone());
    }
    if !chunk.is_empty() || tiles.is_empty() {
        out.push(ReplicationRecord::StageSot {
            video: video.to_string(),
            sot_idx,
            tiles: chunk,
        });
    }
    out
}

/// The sending half of replication: one connection to a backup plus the
/// per-SOT layout epochs it is known to hold, so a re-tile ships only the
/// SOTs that actually changed.
pub struct Replicator {
    conn: Connection,
    addr: String,
    /// Per-video `retile_count` vector the backup last acked.
    acked: std::collections::HashMap<String, Vec<u32>>,
}

impl Replicator {
    /// Connects to the backup at `addr`. The connect and every exchange
    /// after it are bounded by `REPLICATION_TIMEOUT` (30 s), so a backup that
    /// stops answering fails the push instead of holding the thread that
    /// runs it.
    pub fn connect(addr: &str) -> Result<Replicator, String> {
        let conn = Connection::dial(addr, REPLICATION_TIMEOUT)
            .map_err(|e| format!("backup {addr} unreachable: {e}"))?;
        Ok(Replicator {
            conn,
            addr: addr.to_string(),
            acked: std::collections::HashMap::new(),
        })
    }

    /// The backup's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn send(&mut self, record: ReplicationRecord) -> Result<(), String> {
        self.conn
            .replicate(record)
            .map_err(|e| format!("backup {} refused record: {e}", self.addr))?;
        if tasm_obs::enabled() {
            tasm_obs::counter(
                "tasm_replication_acks_total",
                "Replication records durably acknowledged by backups.",
            )
            .inc();
        }
        Ok(())
    }

    /// Ships a full copy of `video`: every SOT's tile bytes, the commit
    /// record, and the semantic-index state. The snapshot pins one MVCC
    /// layout epoch for its whole read, so it is internally consistent at
    /// a single layout epoch even while the retile daemon runs.
    pub fn sync_full(&mut self, tasm: &Tasm, video: &str) -> Result<(), String> {
        let (manifest, sots) = tasm
            .replication_snapshot(video)
            .map_err(|e| format!("snapshot failed: {e}"))?;
        for (i, tiles) in sots.iter().enumerate() {
            for rec in stage_chunks(video, i as u32, tiles) {
                self.send(rec)?;
            }
        }
        let epochs: Vec<u32> = manifest.sots.iter().map(|s| s.retile_count).collect();
        let epoch = manifest.epoch();
        let manifest_bytes = serde_json::to_vec_pretty(&manifest).map_err(|e| e.to_string())?;
        self.send(ReplicationRecord::CommitVideo {
            epoch,
            video: video.to_string(),
            manifest: manifest_bytes,
        })?;
        self.send(index_state(tasm, video)?)?;
        self.acked.insert(video.to_string(), epochs);
        Ok(())
    }

    /// Ships the SOTs of `video` whose layout epoch advanced since the
    /// backup's last ack (the retile-commit delta), reading only those
    /// SOTs' packs. Falls back to a full sync when the backup has never
    /// seen the video.
    pub fn sync_delta(&mut self, tasm: &Tasm, video: &str) -> Result<(), String> {
        if !self.acked.contains_key(video) {
            return self.sync_full(tasm, video);
        }
        let known = self.acked.get(video).cloned().unwrap_or_default();
        let stale = |m: &VideoManifest, i: usize| {
            known.len() != m.sots.len() || m.sots[i].retile_count > known[i]
        };
        let (manifest, sots) = tasm
            .replication_delta(video, stale)
            .map_err(|e| format!("snapshot failed: {e}"))?;
        let manifest_bytes = serde_json::to_vec_pretty(&manifest).map_err(|e| e.to_string())?;
        let mut epochs = known;
        epochs.resize(manifest.sots.len(), 0);
        for (i, tiles) in &sots {
            for rec in stage_chunks(video, *i as u32, tiles) {
                self.send(rec)?;
            }
            let retile_count = manifest.sots[*i].retile_count;
            self.send(ReplicationRecord::CommitSot {
                epoch: retile_count as u64,
                video: video.to_string(),
                sot_idx: *i as u32,
                manifest: manifest_bytes.clone(),
            })?;
            epochs[*i] = retile_count;
        }
        self.acked.insert(video.to_string(), epochs);
        Ok(())
    }

    /// Closes the replication session cleanly.
    pub fn finish(self) -> Result<(), ClientError> {
        self.conn.goodbye()
    }
}

/// The retile daemon's replication hook: after every committed background
/// re-tile, ship the delta to every backup and ack only when all of them
/// took it — the cluster's "replicated before reported durable" point.
pub struct ReplicatorHook {
    tasm: Arc<Tasm>,
    /// Taken as is on poison: a backup a panic left behind mid-sync fails
    /// its next delta, which the caller counts and re-syncs.
    backups: Mutex<Vec<Replicator>>,
}

impl ReplicatorHook {
    /// A hook replicating `tasm`'s re-tiles to `backups`.
    pub fn new(tasm: Arc<Tasm>, backups: Vec<Replicator>) -> ReplicatorHook {
        ReplicatorHook {
            tasm,
            backups: Mutex::new(backups),
        }
    }

    /// Connects to every backup address and ships a full sync of every
    /// registered video — the `tasm serve --backup` startup step that
    /// brings a fresh backup to the primary's current epoch.
    pub fn bootstrap(tasm: Arc<Tasm>, addrs: &[String]) -> Result<ReplicatorHook, String> {
        let mut backups = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut r = Replicator::connect(addr)?;
            for video in tasm.video_names() {
                r.sync_full(&tasm, &video)?;
            }
            backups.push(r);
        }
        Ok(ReplicatorHook::new(tasm, backups))
    }
}

impl RetileHook for ReplicatorHook {
    fn retiled(&self, video: &str) -> Result<(), String> {
        let mut backups = sync::lock(&self.backups);
        for b in backups.iter_mut() {
            b.sync_delta(&self.tasm, video)?;
        }
        Ok(())
    }
}

/// Replicates `video` in full from this node to the node at `target` —
/// the server-side implementation of the `PushVideo` administrative frame
/// (the rebalance copy step, driven by the node that owns the bytes).
pub fn push_video(tasm: &Tasm, video: &str, target: &str) -> Result<(), String> {
    let mut r = Replicator::connect(target)?;
    r.sync_full(tasm, video)?;
    r.finish().map_err(|e| format!("close failed: {e}"))?;
    Ok(())
}
