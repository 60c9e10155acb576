//! # tasm-cluster: the sharded serving layer
//!
//! Scales the single-node TASM server out to a cluster while keeping the
//! system's defining invariant: **queries return bit-identical results**
//! no matter which replica answers, before or after a failover, during
//! and after a rebalance.
//!
//! ```text
//!                         clients (tasm-proto, unchanged)
//!                                   │
//!                                   ▼
//!                        ┌─────────────────────┐   cluster.json
//!                        │   Router            │◄── (epoch-framed
//!                        │  placement + retry  │     shard map)
//!                        │  admission control  │
//!                        │  health / failover  │
//!                        └──────┬──────┬───────┘
//!                 Query ────────┘      └──────── StatsRequest fan-out
//!                        ▼                    ▼
//!              ┌──────────────┐      ┌──────────────┐
//!              │ shard n1     │      │ shard n2     │   … tasm serve
//!              │ (primary for │─────►│ (backup for  │
//!              │  video A)    │ repl │  video A)    │
//!              └──────────────┘      └──────────────┘
//!                 StageSot* + CommitVideo/CommitSot + IndexState,
//!                 each acked before the primary reports durability
//! ```
//!
//! Four cooperating pieces:
//!
//! * [`ShardMap`] — deterministic rendezvous-hash placement of videos
//!   onto nodes with `R`-way replica sets, serialized as a CRC-framed,
//!   epoch-versioned `cluster.json`.
//! * [`Replicator`] / [`apply_record`] — primary→backup shipping of
//!   manifests, verbatim tile bytes, and semantic-index state; re-tile
//!   commits replicate *before* they count as durable
//!   ([`ReplicatorHook`] plugs into the retile daemon). A backup installs
//!   a re-tiled SOT by the same commit step as a local re-tile: the
//!   record's entry for that SOT replaces its own, and the rest of the
//!   primary's manifest is checked against its own, never adopted.
//! * [`Router`] — a `tasm-proto` front-end fanning queries to the owning
//!   shard, failing over to backups, merging cluster-wide statistics,
//!   and draining the cluster in order on shutdown.
//! * [`rebalance`] — moves a video with the staged-commit shape:
//!   copy → verify (byte-equal manifests) → flip the map epoch → GC.
//!
//! Why bit-exactness survives all of this: tile bytes are replicated
//! verbatim, so replica tile files are byte-identical; decode is
//! deterministic; and every layout change (re-tile replication, video
//! install, removal) publishes a new MVCC layout epoch while in-flight
//! scans keep reading the epoch they pinned, so any scan observes exactly
//! one layout epoch end to end. The replicated epoch watermark is the
//! same [`VideoManifest::epoch`](tasm_core::VideoManifest) value queries
//! can pin with `AS OF`.

#![forbid(unsafe_code)]

mod map;
mod rebalance;
mod replicate;
mod router;

pub use map::{rendezvous_score, MapError, NodeInfo, Pin, ShardMap};
pub use rebalance::{rebalance, RebalanceReport};
pub use replicate::{
    apply_record, manifest_json, push_video, Replicator, ReplicatorHook, StagedSots,
};
pub use router::{ClusterShutdownReport, Router, RouterConfig, RouterStats, ShardShutdownReport};

use tasm_service::ServiceStats;

/// Merges one shard's [`ServiceStats`] into a cluster aggregate:
/// counters and planner/dedup accounting are summed, queue depth takes
/// the maximum, and the latency histograms merge bucket-wise (they share
/// fixed log-scale bucket boundaries, so the merge is exact). Every sum
/// saturates: a shard's reply is decoded off the wire and may carry any
/// value, and an overflow here would panic the route worker.
pub fn merge_stats(into: &mut ServiceStats, s: &ServiceStats) {
    into.submitted = into.submitted.saturating_add(s.submitted);
    into.completed = into.completed.saturating_add(s.completed);
    into.failed = into.failed.saturating_add(s.failed);
    into.samples_decoded = into.samples_decoded.saturating_add(s.samples_decoded);
    into.samples_reused = into.samples_reused.saturating_add(s.samples_reused);
    into.cache_hits = into.cache_hits.saturating_add(s.cache_hits);
    into.cache_misses = into.cache_misses.saturating_add(s.cache_misses);
    into.retile_ops = into.retile_ops.saturating_add(s.retile_ops);
    into.retile_errors = into.retile_errors.saturating_add(s.retile_errors);
    into.shared += s.shared;
    into.plan += s.plan;
    into.queue_peak = into.queue_peak.max(s.queue_peak);
    into.latency += s.latency;
}

#[cfg(test)]
mod tests {
    use super::merge_stats;
    use std::time::Duration;
    use tasm_proto::Message;
    use tasm_service::ServiceStats;

    fn stats_with(latencies_micros: &[u64], submitted: u64, queue_peak: u64) -> ServiceStats {
        let mut s = ServiceStats {
            submitted,
            completed: submitted,
            queue_peak,
            ..ServiceStats::default()
        };
        for &us in latencies_micros {
            s.latency.record(Duration::from_micros(us));
        }
        s
    }

    #[test]
    fn merging_an_empty_shard_is_the_identity() {
        let mut merged = stats_with(&[700, 900, 1_200], 3, 5);
        let before_count = merged.latency.count;
        let before_p95 = merged.latency.p95();
        merge_stats(&mut merged, &ServiceStats::default());
        assert_eq!(merged.submitted, 3);
        assert_eq!(merged.queue_peak, 5);
        assert_eq!(merged.latency.count, before_count);
        assert_eq!(merged.latency.p95(), before_p95);
    }

    #[test]
    fn merge_into_empty_reproduces_the_source() {
        let src = stats_with(&[700, 900, 1_200], 3, 5);
        let mut merged = ServiceStats::default();
        merge_stats(&mut merged, &src);
        assert_eq!(merged.submitted, src.submitted);
        assert_eq!(merged.latency.count, src.latency.count);
        assert_eq!(merged.latency.buckets, src.latency.buckets);
        assert_eq!(merged.latency.total_micros, src.latency.total_micros);
    }

    #[test]
    fn queue_peak_takes_the_maximum_not_the_sum() {
        let mut merged = stats_with(&[], 0, 7);
        merge_stats(&mut merged, &stats_with(&[], 0, 3));
        assert_eq!(merged.queue_peak, 7);
        merge_stats(&mut merged, &stats_with(&[], 0, 11));
        assert_eq!(merged.queue_peak, 11);
    }

    #[test]
    fn saturated_stats_replies_merge_without_overflow() {
        // A StatsReply decodes any u64 into every counter; the router
        // merges what its shards send.
        let mut peer = stats_with(&[], u64::MAX, 1);
        peer.cache_hits = u64::MAX;
        peer.cache_misses = u64::MAX;
        peer.shared.owned = u64::MAX;
        peer.shared.joined = u64::MAX;
        peer.plan.tiles_planned = u64::MAX;
        peer.latency.count = u64::MAX;
        peer.latency.total_micros = u64::MAX;
        peer.latency.buckets[3] = 10; // [8, 16) µs
        peer.latency.buckets[5] = u64::MAX; // [32, 64) µs
        let reply = Message::StatsReply {
            stats: Box::new(peer),
        }
        .encode();
        let mut merged = ServiceStats::default();
        for _ in 0..2 {
            let Message::StatsReply { stats } =
                Message::decode_payload(&reply[4..]).expect("decode")
            else {
                panic!("wrong variant");
            };
            merge_stats(&mut merged, &stats);
        }
        assert_eq!(merged.submitted, u64::MAX);
        assert_eq!(merged.plan.tiles_planned, u64::MAX);
        assert_eq!(merged.latency.count, u64::MAX);
        assert_eq!(merged.latency.buckets[3], 20);
        assert_eq!(merged.latency.buckets[5], u64::MAX);
        assert!((0.0..=1.0).contains(&merged.cache_hit_rate()));
        assert!((0.0..=1.0).contains(&merged.shared.join_rate()));
        let p50 = merged.latency.p50().as_micros() as u64;
        assert!((32..=64).contains(&p50), "p50 = {p50}µs");
        let p99 = merged.latency.p99().as_micros() as u64;
        assert!((32..=64).contains(&p99), "p99 = {p99}µs");
    }

    #[test]
    fn disjoint_latency_ranges_keep_both_tails_after_merge() {
        // Shard A: 60 fast queries (~3 µs). Shard B: 40 slow (~2 s).
        let a = stats_with(&vec![3; 60], 60, 1);
        let b = stats_with(&vec![2_000_000; 40], 40, 2);
        let mut merged = ServiceStats::default();
        merge_stats(&mut merged, &a);
        merge_stats(&mut merged, &b);
        assert_eq!(merged.latency.count, 100);
        // The fixed log-scale buckets make the merge exact: the median
        // stays in the fast band and p95 lands in the slow band.
        let p50 = merged.latency.p50().as_micros() as u64;
        assert!((2..=4).contains(&p50), "p50 = {p50}µs");
        let p95 = merged.latency.p95().as_micros() as u64;
        assert!((1_048_576..=4_194_304).contains(&p95), "p95 = {p95}µs");
    }
}
