//! The shard map: deterministic placement of videos onto cluster nodes.
//!
//! Placement uses rendezvous (highest-random-weight) hashing: every
//! `(node, video)` pair gets a pseudo-random score from a fixed mixing
//! function, and a video's replica set is the `R` live nodes with the
//! highest scores. Two properties follow directly:
//!
//! * **Determinism.** Any process holding the same map epoch computes the
//!   same placement — the router, the rebalancer, and a test twin agree
//!   without coordination.
//! * **Minimal disruption.** Adding or removing a node only moves the
//!   videos whose top-`R` set that node enters or leaves — on average
//!   `K/N` of `K` videos for `N` nodes — because every other pair's
//!   scores are untouched. The property test below pins this.
//!
//! Rebalance overrides are expressed as *pins*: an explicit replica-set
//! prefix for one video that takes precedence over rendezvous order. The
//! map is serialized to `cluster.json` with a CRC-framed header line, and
//! every mutation bumps its `epoch` so routers can reload on change and
//! in-flight work can name the placement generation it used.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::Path;
use tasm_index::{crc32, RealIo, StorageIo};

/// One cluster member.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Stable node identifier (used for hashing — renaming a node moves
    /// its data).
    pub id: String,
    /// `host:port` the node's `tasm serve` listens on.
    pub addr: String,
}

/// An explicit placement override for one video (rebalance target).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pin {
    /// Video name.
    pub video: String,
    /// Node ids serving the video, in priority order (first = primary).
    pub nodes: Vec<String>,
}

/// The cluster's placement state: members, replication factor, epoch, and
/// per-video pins.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Placement generation; bumped on every mutation that can move data.
    pub epoch: u64,
    /// Replica-set size (`R`): each video lives on `R` nodes, the first
    /// being its primary.
    pub replicas: u32,
    /// Cluster members.
    pub nodes: Vec<NodeInfo>,
    /// Per-video placement overrides, in no particular order.
    pub pins: Vec<Pin>,
}

/// Shard-map failures (I/O, framing, semantic validation).
#[derive(Debug)]
pub enum MapError {
    /// Reading or writing the map file failed.
    Io(std::io::Error),
    /// The file is not a framed shard map, or its CRC does not match.
    Corrupt(String),
    /// The map's contents are inconsistent (duplicate ids, zero replicas).
    Invalid(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Io(e) => write!(f, "shard map I/O: {e}"),
            MapError::Corrupt(m) => write!(f, "shard map corrupt: {m}"),
            MapError::Invalid(m) => write!(f, "shard map invalid: {m}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<std::io::Error> for MapError {
    fn from(e: std::io::Error) -> Self {
        MapError::Io(e)
    }
}

/// Magic first token of the framed map file.
const MAP_MAGIC: &str = "TASMCLUSTERMAP";
/// Format version of the framed map file.
const MAP_VERSION: u32 = 1;

impl ShardMap {
    /// A fresh epoch-1 map over `nodes` with `replicas`-way replication.
    pub fn new(nodes: Vec<NodeInfo>, replicas: u32) -> Result<ShardMap, MapError> {
        let map = ShardMap {
            epoch: 1,
            replicas,
            nodes,
            pins: Vec::new(),
        };
        map.validate()?;
        Ok(map)
    }

    /// Checks structural invariants: at least one node, distinct ids,
    /// `1 ≤ replicas ≤ nodes`.
    pub fn validate(&self) -> Result<(), MapError> {
        if self.nodes.is_empty() {
            return Err(MapError::Invalid("no nodes".to_string()));
        }
        if self.replicas == 0 {
            return Err(MapError::Invalid("replicas must be ≥ 1".to_string()));
        }
        if self.replicas as usize > self.nodes.len() {
            return Err(MapError::Invalid(format!(
                "replicas {} exceeds node count {}",
                self.replicas,
                self.nodes.len()
            )));
        }
        let mut ids = BTreeSet::new();
        for n in &self.nodes {
            if !ids.insert(n.id.as_str()) {
                return Err(MapError::Invalid(format!("duplicate node id '{}'", n.id)));
            }
        }
        Ok(())
    }

    /// The member with id `id`.
    pub fn node(&self, id: &str) -> Option<&NodeInfo> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// A video's replica set among nodes not in `down`: pinned nodes
    /// first (in pin order), then rendezvous order, truncated to
    /// [`ShardMap::replicas`]. The first entry is the node the router
    /// tries first — when a primary is in `down`, its backup moves up and
    /// serves, which *is* the failover promotion.
    pub fn placement(&self, video: &str, down: &BTreeSet<String>) -> Vec<&NodeInfo> {
        let mut out: Vec<&NodeInfo> = Vec::with_capacity(self.replicas as usize);
        let mut taken: BTreeSet<&str> = BTreeSet::new();
        if let Some(pin) = self.pins.iter().find(|p| p.video == video) {
            for id in &pin.nodes {
                if out.len() == self.replicas as usize {
                    break;
                }
                if down.contains(id) || taken.contains(id.as_str()) {
                    continue;
                }
                if let Some(n) = self.node(id) {
                    taken.insert(&n.id);
                    out.push(n);
                }
            }
        }
        for n in self.rendezvous_order(video) {
            if out.len() == self.replicas as usize {
                break;
            }
            if down.contains(&n.id) || taken.contains(n.id.as_str()) {
                continue;
            }
            taken.insert(&n.id);
            out.push(n);
        }
        out
    }

    /// A video's durable replica set (nobody marked down).
    pub fn replica_set(&self, video: &str) -> Vec<&NodeInfo> {
        self.placement(video, &BTreeSet::new())
    }

    /// All members ordered by descending rendezvous score for `video`
    /// (ties broken by id, which cannot recur for distinct ids).
    pub fn rendezvous_order(&self, video: &str) -> Vec<&NodeInfo> {
        let mut scored: Vec<(u64, &NodeInfo)> = self
            .nodes
            .iter()
            .map(|n| (rendezvous_score(&n.id, video), n))
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.id.cmp(&b.1.id)));
        scored.into_iter().map(|(_, n)| n).collect()
    }

    /// Installs (or replaces) the pin for `video` and bumps the epoch —
    /// the rebalancer's commit point once the copy is verified.
    pub fn pin(&mut self, video: &str, nodes: Vec<String>) {
        self.pins.retain(|p| p.video != video);
        self.pins.push(Pin {
            video: video.to_string(),
            nodes,
        });
        self.epoch += 1;
    }

    /// Serializes the map: a framed header line (magic, version, CRC32 of
    /// the body) followed by the JSON body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = serde_json::to_vec_pretty(self).expect("shard map serializes");
        let mut out =
            format!("{MAP_MAGIC} v{MAP_VERSION} crc32={:08x}\n", crc32(&body)).into_bytes();
        out.extend_from_slice(&body);
        out
    }

    /// Parses a framed map, verifying magic, version, CRC, and the
    /// structural invariants.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardMap, MapError> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| MapError::Corrupt("missing header line".to_string()))?;
        let header = std::str::from_utf8(&bytes[..nl])
            .map_err(|_| MapError::Corrupt("header is not UTF-8".to_string()))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some(MAP_MAGIC) {
            return Err(MapError::Corrupt("bad magic".to_string()));
        }
        match parts.next() {
            Some(v) if v == format!("v{MAP_VERSION}") => {}
            other => return Err(MapError::Corrupt(format!("unsupported version {other:?}"))),
        }
        let crc_field = parts
            .next()
            .and_then(|f| f.strip_prefix("crc32="))
            .ok_or_else(|| MapError::Corrupt("missing crc field".to_string()))?;
        let want = u32::from_str_radix(crc_field, 16)
            .map_err(|_| MapError::Corrupt("unparsable crc".to_string()))?;
        let body = &bytes[nl + 1..];
        let got = crc32(body);
        if got != want {
            return Err(MapError::Corrupt(format!(
                "crc mismatch: header {want:08x}, body {got:08x}"
            )));
        }
        let map: ShardMap = serde_json::from_slice(body)
            .map_err(|e| MapError::Corrupt(format!("body does not parse: {e}")))?;
        map.validate()?;
        Ok(map)
    }

    /// Atomically writes the map to `path` (temp file + rename, fsynced),
    /// so a reader never observes a torn map and a crash leaves either the
    /// old epoch or the new one.
    pub fn save(&self, path: &Path) -> Result<(), MapError> {
        self.save_with(path, &RealIo)
    }

    /// [`ShardMap::save`] through an explicit [`StorageIo`], the hook
    /// `tests/crash_recovery.rs`'s map-save sweep crashes: after a crash at
    /// either operation, `load` returns the old map or the new one. A failed
    /// fsync of the file or of its directory is an error: the new epoch is
    /// not known to be durable.
    pub fn save_with(&self, path: &Path, io: &dyn StorageIo) -> Result<(), MapError> {
        let tmp = path.with_extension("tmp");
        io.write(&tmp, &self.to_bytes())?;
        io.rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and verifies a map from `path`.
    pub fn load(path: &Path) -> Result<ShardMap, MapError> {
        ShardMap::from_bytes(&std::fs::read(path)?)
    }
}

/// The rendezvous score of `(node, video)`: FNV-1a over both strings,
/// finalized with the splitmix64 mixer so single-bit input differences
/// diffuse over the whole score.
pub fn rendezvous_score(node: &str, video: &str) -> u64 {
    splitmix64(fnv64(node.as_bytes()) ^ fnv64(video.as_bytes()).rotate_left(32))
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nodes(n: usize) -> Vec<NodeInfo> {
        (0..n)
            .map(|i| NodeInfo {
                id: format!("n{i}"),
                addr: format!("127.0.0.1:{}", 7000 + i),
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_map_and_detects_corruption() {
        let mut map = ShardMap::new(nodes(3), 2).unwrap();
        map.pin("v7", vec!["n2".to_string(), "n0".to_string()]);
        let bytes = map.to_bytes();
        assert_eq!(ShardMap::from_bytes(&bytes).unwrap(), map);

        // Any body flip must be caught by the CRC.
        let mut torn = bytes.clone();
        let last = torn.len() - 2;
        torn[last] ^= 0x40;
        assert!(matches!(
            ShardMap::from_bytes(&torn),
            Err(MapError::Corrupt(_))
        ));
    }

    /// `cluster.json` is read by every router and rebalancer of a cluster,
    /// possibly of another build: its bytes for a fixed map are pinned.
    #[test]
    fn to_bytes_is_pinned_for_a_fixed_map() {
        let mut map = ShardMap::new(nodes(2), 2).unwrap();
        map.pin("cam", vec!["n1".to_string()]);
        let text = String::from_utf8(map.to_bytes()).unwrap();
        let want = r#"TASMCLUSTERMAP v1 crc32=e55de138
{
  "epoch": 2,
  "replicas": 2,
  "nodes": [
    {
      "id": "n0",
      "addr": "127.0.0.1:7000"
    },
    {
      "id": "n1",
      "addr": "127.0.0.1:7001"
    }
  ],
  "pins": [
    {
      "video": "cam",
      "nodes": [
        "n1"
      ]
    }
  ]
}
"#;
        assert_eq!(text, want);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical check value for CRC-32/IEEE: the checksum line in
        // cluster.json must stay this function, or existing maps stop loading.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn pins_override_and_bump_epoch() {
        let mut map = ShardMap::new(nodes(4), 2).unwrap();
        let before = map.epoch;
        map.pin("vid", vec!["n3".to_string(), "n1".to_string()]);
        assert_eq!(map.epoch, before + 1);
        let set: Vec<&str> = map
            .replica_set("vid")
            .iter()
            .map(|n| n.id.as_str())
            .collect();
        assert_eq!(set, ["n3", "n1"]);
    }

    #[test]
    fn down_primary_promotes_next_candidate() {
        let map = ShardMap::new(nodes(4), 2).unwrap();
        let healthy = map.replica_set("clip");
        let mut down = BTreeSet::new();
        down.insert(healthy[0].id.clone());
        let failed_over = map.placement("clip", &down);
        assert_eq!(failed_over.len(), 2);
        // The old backup is promoted to primary...
        assert_eq!(failed_over[0].id, healthy[1].id);
        // ...and the old primary serves nothing.
        assert!(failed_over.iter().all(|n| n.id != healthy[0].id));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Replica sets never collapse onto fewer than R distinct nodes
        /// while R live nodes exist.
        #[test]
        fn replica_sets_are_distinct(n in 2usize..8, r in 1u32..4, seed in 0u64..1000) {
            let r = r.min(n as u32);
            let map = ShardMap::new(nodes(n), r).unwrap();
            for v in 0..50u64 {
                let set = map.replica_set(&format!("video-{}", v.wrapping_mul(seed + 1)));
                prop_assert_eq!(set.len(), r as usize);
                let ids: BTreeSet<&str> = set.iter().map(|x| x.id.as_str()).collect();
                prop_assert_eq!(ids.len(), r as usize);
            }
        }

        /// Adding one node moves only ~K/N videos: every video whose
        /// replica set changed must have the new node in its new set, and
        /// the churn stays well under half the catalog.
        #[test]
        fn node_add_moves_only_its_share(n in 3usize..8, seed in 0u64..1000) {
            let before = ShardMap::new(nodes(n), 2).unwrap();
            let mut grown = nodes(n);
            grown.push(NodeInfo { id: "n-new".to_string(), addr: "127.0.0.1:9999".to_string() });
            let after = ShardMap::new(grown, 2).unwrap();

            const K: u64 = 120;
            let mut moved = 0usize;
            for v in 0..K {
                let name = format!("clip-{}-{seed}", v);
                let old: Vec<String> =
                    before.replica_set(&name).iter().map(|x| x.id.clone()).collect();
                let new: Vec<String> =
                    after.replica_set(&name).iter().map(|x| x.id.clone()).collect();
                if old != new {
                    moved += 1;
                    // Disruption is *only* the new node entering a set.
                    prop_assert!(new.iter().any(|id| id == "n-new"));
                }
            }
            // Expected churn ≈ R·K/(N+1); allow generous slack above the
            // mean but require it far from "everything moved".
            let expect = 2.0 * K as f64 / (n as f64 + 1.0);
            prop_assert!(
                (moved as f64) < 2.5 * expect + 8.0,
                "moved {} of {} videos (expected ≈{:.0})", moved, K, expect
            );
        }

        /// Removing a node strands only the videos it served: every other
        /// replica set is unchanged.
        #[test]
        fn node_remove_touches_only_its_videos(n in 3usize..8, seed in 0u64..1000) {
            let before = ShardMap::new(nodes(n), 2).unwrap();
            let removed = format!("n{}", seed as usize % n);
            let shrunk: Vec<NodeInfo> =
                nodes(n).into_iter().filter(|x| x.id != removed).collect();
            let after = ShardMap::new(shrunk, 2).unwrap();

            for v in 0..120u64 {
                let name = format!("cam-{}-{seed}", v);
                let old: Vec<String> =
                    before.replica_set(&name).iter().map(|x| x.id.clone()).collect();
                let new: Vec<String> =
                    after.replica_set(&name).iter().map(|x| x.id.clone()).collect();
                if !old.contains(&removed) {
                    prop_assert_eq!(old, new);
                } else {
                    prop_assert!(new.iter().all(|id| *id != removed));
                }
            }
        }
    }
}
