//! # tasm-obs: observability primitives for the TASM stack
//!
//! A dependency-free leaf crate every other layer (core, service, server,
//! cluster, cli) can share without cycles. Five pieces:
//!
//! - [`metrics`] — a process-global, lock-free metrics registry. Counters
//!   and gauges are single atomics; a [`Histogram`] is 40 power-of-two
//!   microsecond bands of atomics (`Release` count paired with an
//!   `Acquire` snapshot load so a racy snapshot can only under-count).
//!   Its plain copy, [`HistogramSnapshot`], carries the quantiles and the
//!   merge, and is also the query service's latency histogram.
//!   [`metrics::render`] emits the whole registry in Prometheus text
//!   exposition format 0.0.4, including cumulative `_bucket{le="..."}`
//!   series; [`render_counter_into`] and [`render_histogram_into`] emit
//!   one series the registry does not hold (a server's, a router's or a
//!   service's own counts, rendered at scrape time).
//! - [`trace`] — per-query distributed tracing: a process-unique
//!   [`trace::next_trace_id`], RAII [`trace::PhaseSpan`]s that accumulate
//!   wall time into one of four fixed phases (queue / plan / decode /
//!   stream), and the wire-portable [`QueryTrace`] summary a server
//!   attaches to its `ResultDone` frame.
//! - [`log`] — a leveled structured logger writing `key=value` lines (or
//!   JSON lines) to stderr, used for the slow-query log, retile-daemon
//!   errors, and recovery reports.
//! - [`http`] — a hand-rolled minimal HTTP/1.1 GET responder for
//!   `/metrics`, so `tasm serve --metrics-addr` needs no HTTP crate.
//! - [`sync`] — the one poison rule every lock in the workspace goes
//!   through.
//!
//! ## Overhead and the kill switch
//!
//! Counters, gauges and phase spans early-return when
//! [`set_enabled`]`(false)` has been called, so the instrumented stack can
//! be measured against a no-op baseline in one binary. Enabled is the
//! default. A [`Histogram`] records regardless, because the service's
//! latency histogram must match its completed count; the registry's
//! histogram call sites test [`enabled`] before the lookup instead. The
//! counts a service, server or router keeps for itself are plain atomics
//! outside the registry, so they count regardless too.

#![forbid(unsafe_code)]

pub mod http;
pub mod log;
pub mod metrics;
pub mod sync;
pub mod trace;

pub use http::MetricsServer;
pub use log::Level;
pub use metrics::{
    counter, gauge, histogram, render, render_counter_into, render_histogram_into, Counter, Gauge,
    Histogram, HistogramSnapshot, HISTOGRAM_BANDS,
};
pub use trace::{next_trace_id, Phase, PhaseSpan, QueryTrace, TraceSpans};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables counters, gauge increments and phase
/// spans (registration, rendering and [`Histogram`] recording still work).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is live (the default).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Serializes tests that record metrics or toggle the global kill switch,
/// so a test flipping [`set_enabled`] cannot swallow another test's
/// increments.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    sync::lock(&GUARD)
}
