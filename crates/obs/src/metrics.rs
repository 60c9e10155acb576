//! The process-global lock-free metrics registry and its Prometheus text
//! exposition.
//!
//! Registration (`counter` / `gauge` / `histogram`) takes a short mutex to
//! insert into the name map and hands back an `Arc` handle; every update
//! after that is a plain atomic on the handle. Call sites that run once per
//! query may simply re-look-up by name — the map is a `BTreeMap` behind a
//! mutex and a lookup is nanoseconds next to a video decode. Hot loops
//! should cache the `Arc` in a `OnceLock`.
//!
//! Histograms count observations in log₂-microsecond bands: bucket `i`
//! counts observations whose microsecond value has floored log₂ `i` (band 0
//! also holds sub-microsecond observations), 40 bands reach ≈12.7 days.
//! The count is bumped with `Release` ordering after the bucket so an
//! `Acquire` snapshot can only observe `count <= sum(buckets)`. The same
//! type carries the query service's submit→complete latency: its
//! [`HistogramSnapshot`] is what `StatsReply` puts on the wire and what
//! the load generator and the router merge.

use crate::sync;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Number of log₂ microsecond bands in a [`Histogram`].
pub const HISTOGRAM_BANDS: usize = 40;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while instrumentation is disabled).
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed gauge (queue depth, live epoch pins, sessions).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `delta` (no-op while instrumentation is disabled).
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Overwrites the value (applies even while disabled, so a re-enable
    /// does not resurrect a stale level).
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free log₂-banded duration histogram: one `fetch_add` into a
/// band, one into the sum and one into the count per observation — no
/// locks, no allocation.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BANDS],
    count: AtomicU64,
    total_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BANDS],
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
        }
    }
}

/// Band a microsecond value falls into (log₂ scale, clamped).
fn band_index(micros: u64) -> usize {
    if micros == 0 {
        0
    } else {
        (micros.ilog2() as usize).min(HISTOGRAM_BANDS - 1)
    }
}

impl Histogram {
    /// Records one duration. Unlike counters and gauges, a histogram
    /// records whatever the kill switch says: the service's latency
    /// histogram must match its completed count, so the registry's call
    /// sites test [`crate::enabled`] themselves.
    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros() as u64);
    }

    /// Records one observation in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.buckets[band_index(micros)].fetch_add(1, Ordering::Relaxed);
        // Release pairs with the Acquire count load in `snapshot`: a
        // snapshot that observes this count also observes the bucket add.
        self.count.fetch_add(1, Ordering::Release);
    }

    /// A consistent-enough point-in-time copy: the count is loaded first
    /// with `Acquire`, so a racing `record_micros` leaves at worst
    /// `count <= sum(buckets)`.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Acquire);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count,
            total_micros: self.total_micros.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of a [`Histogram`], and the histogram itself wherever
/// no atomics are needed (a load generator's per-worker latencies, a
/// snapshot decoded off the wire, a cluster-wide merge).
///
/// Fixed memory regardless of observation count: one counter per
/// power-of-two microsecond band. Percentiles interpolate linearly inside
/// the resolved band, so they carry band-sized (±2×) resolution — adequate
/// for p50/p95/p99 reporting without keeping per-observation samples.
/// Merges and the quantile walk saturate, so a peer's snapshot whose
/// counters sit near `u64::MAX` cannot overflow them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-band counts; band `i` covers `[2^i, 2^(i+1))` µs (band 0 starts
    /// at zero).
    pub buckets: [u64; HISTOGRAM_BANDS],
    /// Recorded observations.
    pub count: u64,
    /// Sum of all observations in microseconds.
    pub total_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BANDS],
            count: 0,
            total_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one duration (the non-atomic side, used where one thread
    /// owns the histogram).
    pub fn record(&mut self, d: Duration) {
        let micros = d.as_micros() as u64;
        self.buckets[band_index(micros)] += 1;
        self.count += 1;
        self.total_micros += micros;
    }

    /// Mean recorded duration.
    pub fn mean(&self) -> Duration {
        Duration::from_micros(self.total_micros.checked_div(self.count).unwrap_or(0))
    }

    /// The `q`-quantile (`0 < q <= 1`) of the recorded durations,
    /// interpolated inside the resolved band. Zero when nothing was
    /// recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let mut last_upper = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen.saturating_add(n) >= target {
                let lower = if i == 0 { 0u64 } else { 1u64 << i };
                let upper = 1u64 << (i + 1);
                let frac = (target - seen) as f64 / n as f64;
                let micros = lower as f64 + frac * (upper - lower) as f64;
                return Duration::from_micros(micros as u64);
            }
            seen += n;
            last_upper = 1u64 << (i + 1);
        }
        // Reachable only on a racy or hand-built snapshot whose count
        // exceeds the bucket sum; the highest populated band is then the
        // honest answer (never a spurious zero).
        Duration::from_micros(last_upper)
    }

    /// Median.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

impl std::ops::AddAssign for HistogramSnapshot {
    fn add_assign(&mut self, rhs: HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets) {
            *a = a.saturating_add(b);
        }
        self.count = self.count.saturating_add(rhs.count);
        self.total_micros = self.total_micros.saturating_add(rhs.total_micros);
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    help: &'static str,
    metric: Metric,
}

/// Every registered metric. Taken as is on poison: the one panic under it,
/// a kind mismatch, fires after the map is already valid — and clearing it
/// would start counters again from zero.
fn registry() -> &'static Mutex<BTreeMap<&'static str, Entry>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Returns (registering on first use) the named counter.
///
/// # Panics
/// If `name` was previously registered as a different metric kind.
pub fn counter(name: &'static str, help: &'static str) -> Arc<Counter> {
    let mut reg = sync::lock(registry());
    let entry = reg.entry(name).or_insert_with(|| Entry {
        help,
        metric: Metric::Counter(Arc::new(Counter::default())),
    });
    match &entry.metric {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// Returns (registering on first use) the named gauge.
///
/// # Panics
/// If `name` was previously registered as a different metric kind.
pub fn gauge(name: &'static str, help: &'static str) -> Arc<Gauge> {
    let mut reg = sync::lock(registry());
    let entry = reg.entry(name).or_insert_with(|| Entry {
        help,
        metric: Metric::Gauge(Arc::new(Gauge::default())),
    });
    match &entry.metric {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// Returns (registering on first use) the named histogram.
///
/// # Panics
/// If `name` was previously registered as a different metric kind.
pub fn histogram(name: &'static str, help: &'static str) -> Arc<Histogram> {
    let mut reg = sync::lock(registry());
    let entry = reg.entry(name).or_insert_with(|| Entry {
        help,
        metric: Metric::Histogram(Arc::new(Histogram::default())),
    });
    match &entry.metric {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// Renders the whole registry in Prometheus text exposition format 0.0.4
/// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le="..."}` series plus
/// `_sum`/`_count` for histograms, durations in seconds).
pub fn render() -> String {
    let reg = sync::lock(registry());
    let mut out = String::new();
    for (name, entry) in reg.iter() {
        match &entry.metric {
            Metric::Counter(c) => render_counter_into(&mut out, name, entry.help, c.get()),
            Metric::Gauge(g) => {
                out.push_str(&format!(
                    "# HELP {name} {}\n# TYPE {name} gauge\n{name} {}\n",
                    entry.help,
                    g.get()
                ));
            }
            Metric::Histogram(h) => {
                render_histogram_into(&mut out, name, entry.help, &h.snapshot())
            }
        }
    }
    out
}

/// Appends one counter in exposition format.
///
/// Shared by [`render`] and by callers exposing a count the registry does
/// not hold (a server's or a router's own counters).
pub fn render_counter_into(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

/// Appends one histogram in exposition format. The rendered `le` bounds
/// are the band upper edges converted to seconds, band counts cumulated
/// as Prometheus requires, with `+Inf` pinned to the total observation
/// count (which can exceed the band sum on a racy snapshot).
///
/// Shared by [`render`] and by callers exposing a histogram the registry
/// does not hold (the service latency histogram).
pub fn render_histogram_into(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        cumulative = cumulative.saturating_add(n);
        let le = (1u128 << (i + 1)) as f64 / 1e6;
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n",
        cumulative.max(h.count)
    ));
    out.push_str(&format!("{name}_sum {}\n", h.total_micros as f64 / 1e6));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_accumulate() {
        let _serial = crate::test_serial();
        let c = counter("test_obs_counter_total", "test counter");
        c.inc();
        c.add(4);
        assert_eq!(counter("test_obs_counter_total", "ignored").get(), 5);
        let g = gauge("test_obs_gauge", "test gauge");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(gauge("test_obs_gauge", "ignored").get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_bands_match_the_service_shape() {
        let _serial = crate::test_serial();
        assert_eq!(band_index(0), 0);
        assert_eq!(band_index(1), 0);
        assert_eq!(band_index(2), 1);
        assert_eq!(band_index(3), 1);
        assert_eq!(band_index(1024), 10);
        assert_eq!(band_index(u64::MAX), HISTOGRAM_BANDS - 1);
        let h = Histogram::default();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(10));
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.total_micros, 10_200);
        assert_eq!(snap.buckets[6], 2); // [64, 128) µs
        assert_eq!(snap.buckets[13], 1); // [8192, 16384) µs
    }

    #[test]
    fn exposition_buckets_are_cumulative_and_well_formed() {
        let _serial = crate::test_serial();
        let mut h = HistogramSnapshot {
            count: 3,
            total_micros: 10_200,
            ..Default::default()
        };
        h.buckets[6] = 2;
        h.buckets[13] = 1;
        let mut out = String::new();
        render_histogram_into(&mut out, "test_hist_seconds", "help text", &h);
        assert!(out.contains("# TYPE test_hist_seconds histogram\n"));
        // Band 6 upper edge is 128 µs = 0.000128 s; cumulative count 2.
        assert!(out.contains("test_hist_seconds_bucket{le=\"0.000128\"} 2\n"));
        // Band 13 upper edge is 16384 µs; cumulative count 3.
        assert!(out.contains("test_hist_seconds_bucket{le=\"0.016384\"} 3\n"));
        assert!(out.contains("test_hist_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("test_hist_seconds_sum 0.0102\n"));
        assert!(out.contains("test_hist_seconds_count 3\n"));
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn racy_snapshot_pins_inf_bucket_to_count() {
        let _serial = crate::test_serial();
        // count=2 but only one banded observation: the torn-read shape.
        let mut h = HistogramSnapshot {
            count: 2,
            total_micros: 5,
            ..Default::default()
        };
        h.buckets[0] = 1;
        let mut out = String::new();
        render_histogram_into(&mut out, "racy_seconds", "h", &h);
        assert!(out.contains("racy_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(out.contains("racy_seconds_count 2\n"));
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _serial = crate::test_serial();
        let c = counter("test_obs_disabled_total", "t");
        crate::set_enabled(false);
        c.inc();
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn histograms_record_whatever_the_kill_switch_says() {
        // The service's latency histogram must match its completed count,
        // so the switch is tested at the registry's call sites instead.
        let _serial = crate::test_serial();
        let h = Histogram::default();
        crate::set_enabled(false);
        h.record(Duration::from_micros(10));
        crate::set_enabled(true);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn render_emits_every_registered_series() {
        let _serial = crate::test_serial();
        counter("test_obs_render_total", "a counter").inc();
        gauge("test_obs_render_gauge", "a gauge").set(7);
        histogram("test_obs_render_seconds", "a histogram").record(Duration::from_micros(3));
        let text = render();
        assert!(text.contains("test_obs_render_total 1\n"));
        assert!(text.contains("test_obs_render_gauge 7\n"));
        assert!(text.contains("# TYPE test_obs_render_seconds histogram\n"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value parses");
        }
    }

    #[test]
    fn quantiles_resolve_to_the_right_band() {
        let mut h = HistogramSnapshot::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // band [64, 128)
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(100)); // band [65536, 131072)
        }
        assert_eq!(h.count, 100);
        let p50 = h.p50().as_micros() as u64;
        assert!((64..128).contains(&p50), "p50 in the 100µs band, got {p50}");
        let p99 = h.p99().as_micros() as u64;
        assert!(
            (65_536..131_072).contains(&p99),
            "p99 in the 100ms band, got {p99}"
        );
        assert!(h.p95() <= h.p99());
        assert!(h.p50() <= h.p95());
    }

    #[test]
    fn racy_snapshot_with_excess_count_never_reports_zero() {
        // A snapshot can observe a count one ahead of the bucket sum when
        // it races a concurrent `record`; quantiles must then fall back to
        // the highest populated band instead of zero.
        let mut h = HistogramSnapshot::default();
        h.record(Duration::from_micros(900)); // band [512, 1024)
        h.count += 1; // simulate the torn read
        assert_eq!(h.p99(), Duration::from_micros(1024));
        assert!(h.p50() > Duration::ZERO);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn merge_accumulates_both_sides() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a += b;
        assert_eq!(a.count, 2);
        assert_eq!(a.total_micros, 1010);
        assert_eq!(a.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn single_bucket_quantiles_all_land_in_that_band() {
        let mut h = HistogramSnapshot::default();
        for _ in 0..37 {
            h.record(Duration::from_micros(700)); // band [512, 1024)
        }
        for q in [0.01, 0.25, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantile(q).as_micros() as u64;
            assert!(
                (512..=1024).contains(&v),
                "q={q} must interpolate inside the only populated band, got {v}"
            );
        }
        assert!(h.quantile(0.01) <= h.quantile(1.0));
    }

    #[test]
    fn racy_snapshot_with_count_below_bucket_sum_stays_in_band() {
        // The atomic side's ordering guarantees a snapshot observes
        // count <= sum(buckets): bucket adds may land that the count does
        // not yet reflect. Quantiles must then resolve against the buckets
        // that are there, never read past them.
        let mut h = HistogramSnapshot::default();
        h.record(Duration::from_micros(10)); // band [8, 16)
        h.record(Duration::from_micros(5000)); // band [4096, 8192)
        h.count -= 1; // simulate the not-yet-counted bucket add
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
        // Every quantile of a count-1 histogram resolves inside the first
        // populated band (interpolation may land on its upper edge).
        let v = h.quantile(1.0).as_micros() as u64;
        assert!(
            (8..=16).contains(&v),
            "resolved into the first band, got {v}"
        );
        assert_eq!(h.quantile(0.5), h.quantile(1.0));
    }

    #[test]
    fn merge_of_disjoint_bucket_ranges_keeps_both_tails() {
        let mut low = HistogramSnapshot::default();
        let mut high = HistogramSnapshot::default();
        for _ in 0..60 {
            low.record(Duration::from_micros(3)); // band [2, 4)
        }
        for _ in 0..40 {
            high.record(Duration::from_secs(2)); // band [2^20, 2^21) µs
        }
        low += high;
        assert_eq!(low.count, 100);
        assert_eq!(low.total_micros, 60 * 3 + 40 * 2_000_000);
        let p50 = low.p50().as_micros() as u64;
        assert!(
            (2..4).contains(&p50),
            "p50 stays in the low band, got {p50}"
        );
        let p95 = low.p95().as_micros() as u64;
        assert!(
            (1_048_576..2_097_152).contains(&p95),
            "p95 lands in the seconds band, got {p95}"
        );
        // No bucket between the two populated bands was invented.
        assert_eq!(low.buckets.iter().filter(|&&n| n > 0).count(), 2);
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        let mut h = HistogramSnapshot::default();
        h.record(Duration::from_micros(77));
        let before = h;
        h += HistogramSnapshot::default();
        assert_eq!(h, before);
        let mut empty = HistogramSnapshot::default();
        empty += before;
        assert_eq!(empty, before);
    }

    #[test]
    fn atomic_and_plain_sides_agree() {
        let atomic = Histogram::default();
        let mut plain = HistogramSnapshot::default();
        for micros in [0u64, 1, 7, 900, 123_456] {
            atomic.record(Duration::from_micros(micros));
            plain.record(Duration::from_micros(micros));
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn saturated_counts_merge_and_resolve_without_overflow() {
        // What a hostile peer's StatsReply can carry: every counter near
        // u64::MAX.
        let mut peer = HistogramSnapshot {
            count: u64::MAX,
            total_micros: u64::MAX,
            ..Default::default()
        };
        peer.buckets[3] = 10; // [8, 16) µs
        peer.buckets[5] = u64::MAX; // [32, 64) µs
        let mut merged = peer;
        merged += peer;
        assert_eq!(merged.count, u64::MAX);
        assert_eq!(merged.total_micros, u64::MAX);
        assert_eq!(merged.buckets[3], 20);
        assert_eq!(merged.buckets[5], u64::MAX);
        for h in [peer, merged] {
            let p99 = h.p99().as_micros() as u64;
            assert!(
                (32..=64).contains(&p99),
                "p99 in the [32, 64) band, got {p99}"
            );
            assert!(h.quantile(1e-30).as_micros() >= 8);
        }
        let mut out = String::new();
        render_histogram_into(&mut out, "saturated_seconds", "h", &merged);
        assert!(out.contains(&format!("saturated_seconds_count {}\n", u64::MAX)));
    }
}
