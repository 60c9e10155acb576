//! Aggregate service statistics, maintained lock-free by the workers.

use std::sync::atomic::{AtomicU64, Ordering};
use tasm_core::{PlanStats, ScanResult, SharedScanStats};
use tasm_obs::{Histogram, HistogramSnapshot};

/// Atomic counters the workers and the retile daemon update in place.
#[derive(Default)]
pub(crate) struct StatsCell {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub samples_decoded: AtomicU64,
    pub samples_reused: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub shared_owned: AtomicU64,
    pub shared_joined: AtomicU64,
    pub tiles_planned: AtomicU64,
    pub tiles_pruned: AtomicU64,
    pub gops_planned: AtomicU64,
    pub gops_skipped: AtomicU64,
    pub frames_sampled: AtomicU64,
    pub retile_ops: AtomicU64,
    pub retile_errors: AtomicU64,
    pub queue_peak: AtomicU64,
    pub latency: Histogram,
}

impl StatsCell {
    pub fn record_scan(&self, r: &ScanResult) {
        self.samples_decoded
            .fetch_add(r.stats.samples_decoded, Ordering::Relaxed);
        self.samples_reused
            .fetch_add(r.cache.samples_reused, Ordering::Relaxed);
        self.cache_hits.fetch_add(r.cache.hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(r.cache.misses, Ordering::Relaxed);
        self.shared_owned
            .fetch_add(r.shared.owned, Ordering::Relaxed);
        self.shared_joined
            .fetch_add(r.shared.joined, Ordering::Relaxed);
        self.tiles_planned
            .fetch_add(r.plan.tiles_planned, Ordering::Relaxed);
        self.tiles_pruned
            .fetch_add(r.plan.tiles_pruned, Ordering::Relaxed);
        self.gops_planned
            .fetch_add(r.plan.gops_planned, Ordering::Relaxed);
        self.gops_skipped
            .fetch_add(r.plan.gops_skipped, Ordering::Relaxed);
        self.frames_sampled
            .fetch_add(r.plan.frames_sampled, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            samples_decoded: self.samples_decoded.load(Ordering::Relaxed),
            samples_reused: self.samples_reused.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            shared: SharedScanStats {
                owned: self.shared_owned.load(Ordering::Relaxed),
                joined: self.shared_joined.load(Ordering::Relaxed),
            },
            plan: PlanStats {
                tiles_planned: self.tiles_planned.load(Ordering::Relaxed),
                tiles_pruned: self.tiles_pruned.load(Ordering::Relaxed),
                gops_planned: self.gops_planned.load(Ordering::Relaxed),
                gops_skipped: self.gops_skipped.load(Ordering::Relaxed),
                frames_sampled: self.frames_sampled.load(Ordering::Relaxed),
            },
            retile_ops: self.retile_ops.load(Ordering::Relaxed),
            retile_errors: self.retile_errors.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// A point-in-time snapshot of the service's aggregate counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries completed successfully.
    pub completed: u64,
    /// Queries that returned an error.
    pub failed: u64,
    /// Samples actually decoded across all queries (cache reuse excluded).
    pub samples_decoded: u64,
    /// Samples served from the decoded-GOP cache instead of being decoded.
    pub samples_reused: u64,
    /// Decoded-GOP cache hits across all queries.
    pub cache_hits: u64,
    /// Decoded-GOP cache misses across all queries.
    pub cache_misses: u64,
    /// Shared-scan dedup accounting: GOP decodes owned vs. joined.
    pub shared: SharedScanStats,
    /// Aggregate planner accounting across all queries: decode units
    /// scheduled (`tiles_planned`/`gops_planned`) vs. pruned before decode
    /// (`tiles_pruned`/`gops_skipped`), plus the frames actually sampled.
    pub plan: PlanStats,
    /// SOT re-tile operations performed by the retile daemon.
    pub retile_ops: u64,
    /// Observations the daemon failed to process.
    pub retile_errors: u64,
    /// Deepest the submission queue has been.
    pub queue_peak: u64,
    /// Submit→complete latency distribution of completed queries
    /// (p50/p95/p99 via [`HistogramSnapshot::quantile`]).
    pub latency: HistogramSnapshot,
}

impl ServiceStats {
    /// Fraction of decoded-GOP lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits.saturating_add(self.cache_misses);
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasm_obs::HISTOGRAM_BANDS;

    /// Band a single latency recorded by the workers lands in.
    fn bucket_index(micros: u64) -> usize {
        let cell = StatsCell::default();
        cell.latency.record_micros(micros);
        let snap = cell.snapshot().latency;
        assert_eq!(snap.count, 1);
        let mut hit = (0..HISTOGRAM_BANDS).filter(|&i| snap.buckets[i] == 1);
        let band = hit.next().expect("one band holds the observation");
        assert_eq!(hit.next(), None);
        band
    }

    #[test]
    fn bucket_index_is_log2_with_clamping() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BANDS - 1);
    }
}
