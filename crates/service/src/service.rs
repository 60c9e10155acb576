//! The query service: bounded submission queue, worker pool, per-query
//! handles, and lifecycle management.

use crate::daemon::{self, Observation};
use crate::stats::{ServiceStats, StatsCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tasm_core::{recycle_canvases, CanvasPool, Query, RetilePolicy, ScanResult, Tasm, TasmError};
use tasm_obs::sync;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Query worker threads. `0` = one per available core. Each worker runs
    /// one query at a time; the decode pipeline inside a query may use
    /// further threads (`TasmConfig::workers`).
    pub workers: usize,
    /// Capacity of the submission queue. [`QueryService::submit`] blocks
    /// while the queue is full (backpressure); [`QueryService::try_submit`]
    /// fails fast instead.
    pub queue_depth: usize,
    /// Background layout policy applied to completed queries.
    pub retile: RetilePolicy,
    /// Slow-query log threshold: any completed query whose
    /// submission→completion time reaches this logs its full trace at
    /// `warn` through the structured logger (`None` disables the log).
    pub slow_query: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_depth: 64,
            retile: RetilePolicy::Off,
            slow_query: None,
        }
    }
}

/// Callback fired by the retile daemon after a re-tile commits locally,
/// before it is counted in `ServiceStats::retile_ops` — the hook point
/// where the cluster layer ships the new layout epoch to backups and waits
/// for their acknowledgement, so a re-tile is only reported durable once
/// every backup can answer at the new epoch.
pub trait RetileHook: Send + Sync {
    /// Called with the re-tiled video's name. An error is counted in
    /// `ServiceStats::retile_errors`; the local commit stands either way
    /// (the caller re-syncs lagging backups out of band).
    fn retiled(&self, video: &str) -> Result<(), String>;
}

/// One query to execute: a video name plus a full spatiotemporal
/// [`Query`] (label predicate ∧ optional ROI, stride, limit, and aggregate
/// mode — see `tasm_core::query` for planner semantics).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Video name (must be ingested/attached on the shared [`Tasm`]).
    pub video: String,
    /// The query to plan and execute.
    pub query: Query,
    /// Caller-supplied distributed trace id; `None` assigns one at
    /// admission. Either way the id tags the outcome's
    /// [`QueryTrace`](tasm_obs::QueryTrace).
    pub trace_id: Option<u64>,
}

impl QueryRequest {
    /// A request submitting an arbitrary [`Query`].
    pub fn new(video: impl Into<String>, query: Query) -> Self {
        QueryRequest {
            video: video.into(),
            query,
            trace_id: None,
        }
    }

    /// Tags the request with a caller-chosen trace id (a remote client's,
    /// relayed by the server).
    pub fn with_trace_id(mut self, trace_id: Option<u64>) -> Self {
        self.trace_id = trace_id;
        self
    }
}

/// A completed query with its per-query timings.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Service-assigned query id (submission order).
    pub id: u64,
    /// The scan result, bit-identical to a serial execution against the
    /// layout epoch the query observed.
    pub result: ScanResult,
    /// Time spent waiting in the submission queue.
    pub queue_time: Duration,
    /// Submission-to-completion wall-clock time.
    pub total_time: Duration,
    /// Per-phase execution trace (queue/plan/decode filled here; the
    /// serving layer adds its stream time and instance tag).
    pub trace: tasm_obs::QueryTrace,
    /// Where the regions' canvases came from, and go back to.
    canvases: Arc<CanvasPool>,
}

/// However an outcome ends — streamed to the last frame, refused, or dropped
/// with the session that was reading it — the store that composed its
/// canvases gets them back for the next answer.
impl Drop for QueryOutcome {
    fn drop(&mut self) {
        recycle_canvases(&self.canvases, std::mem::take(&mut self.result.regions));
    }
}

/// Errors surfaced to submitters.
#[derive(Debug)]
pub enum ServiceError {
    /// The underlying storage manager failed the query.
    Tasm(TasmError),
    /// The service is shutting down and no longer accepts queries.
    ShuttingDown,
    /// `try_submit` found the queue at capacity.
    QueueFull,
    /// The worker executing the query disappeared (panic).
    WorkerLost,
    /// The query panicked mid-execution. The worker caught the unwind and
    /// keeps serving; only this query failed.
    Panicked,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Tasm(e) => write!(f, "{e}"),
            ServiceError::ShuttingDown => write!(f, "query service is shutting down"),
            ServiceError::QueueFull => write!(f, "submission queue is full"),
            ServiceError::WorkerLost => write!(f, "query worker terminated unexpectedly"),
            ServiceError::Panicked => write!(f, "query execution panicked"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<TasmError> for ServiceError {
    fn from(e: TasmError) -> Self {
        ServiceError::Tasm(e)
    }
}

/// How [`QueryService::shutdown`] treats queries still in the submission
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Every accepted query completes before the workers exit; the retile
    /// daemon processes its whole backlog. This is also the `Drop`
    /// behavior.
    Drain,
    /// Queued-but-unstarted queries are abandoned (their handles resolve to
    /// [`ServiceError::ShuttingDown`]) and the retile backlog is discarded;
    /// only queries already executing on a worker complete.
    Abort,
}

/// What a shutdown did: the explicit drain contract.
#[derive(Debug, Clone, Copy)]
pub struct ShutdownReport {
    /// The mode the shutdown ran under.
    pub mode: Shutdown,
    /// Queries that completed successfully over the service's lifetime.
    pub completed: u64,
    /// Accepted queries abandoned in the queue ([`Shutdown::Abort`] only;
    /// always zero for [`Shutdown::Drain`]).
    pub abandoned: u64,
    /// Final aggregate statistics.
    pub stats: ServiceStats,
}

/// Handle to one submitted query.
pub struct QueryHandle {
    id: u64,
    rx: mpsc::Receiver<Result<QueryOutcome, ServiceError>>,
}

impl QueryHandle {
    /// The service-assigned query id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the query completes.
    pub fn wait(self) -> Result<QueryOutcome, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::WorkerLost))
    }
}

/// RAII completion guard: the one way a job's outcome reaches its
/// submitter — a [`QueryHandle`]'s channel or a reactor's callback, invoked
/// on the worker thread. A job dropped without delivering — a worker dying
/// so abruptly the unwind escapes the job, or any future code path that
/// forgets — fires with [`ServiceError::WorkerLost`], so no submitter ever
/// waits on a completion that cannot arrive.
struct CompletionGuard(Option<CompletionFn>);

/// The callback a [`CompletionGuard`] fires exactly once.
type CompletionFn = Box<dyn FnOnce(Result<QueryOutcome, ServiceError>) + Send>;

impl CompletionGuard {
    fn new(done: impl FnOnce(Result<QueryOutcome, ServiceError>) + Send + 'static) -> Self {
        CompletionGuard(Some(Box::new(done)))
    }

    fn deliver(mut self, result: Result<QueryOutcome, ServiceError>) {
        if let Some(f) = self.0.take() {
            f(result);
        }
    }

    /// Defuses the guard without firing it: the submission was rejected,
    /// so the caller learns the outcome from the returned error — a
    /// completion on top of it would be a duplicate response.
    fn disarm(mut self) {
        self.0.take();
    }
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(Err(ServiceError::WorkerLost));
        }
    }
}

/// The outcome channel a [`QueryHandle`] waits on, fed by a guard. A
/// dropped handle is fine: the send just goes nowhere.
fn channel_completion() -> (
    CompletionGuard,
    mpsc::Receiver<Result<QueryOutcome, ServiceError>>,
) {
    let (tx, rx) = mpsc::sync_channel(1);
    let done = CompletionGuard::new(move |result| {
        let _ = tx.send(result);
    });
    (done, rx)
}

struct Job {
    id: u64,
    /// Trace id resolved at admission: the request's, or a fresh one.
    trace_id: u64,
    req: QueryRequest,
    done: CompletionGuard,
    enqueued: Instant,
}

/// Queries currently waiting in the submission queue (gauge).
fn queue_depth_gauge() -> Arc<tasm_obs::Gauge> {
    tasm_obs::gauge(
        "tasm_queue_depth",
        "Queries currently waiting in the submission queue.",
    )
}

pub(crate) struct Shared {
    pub tasm: Arc<Tasm>,
    pub cfg: ServiceConfig,
    /// Taken as is on poison, like every lock here: a section pushes,
    /// pops or drains whole jobs, each one `VecDeque` operation.
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    not_full: Condvar,
    pub shutdown: AtomicBool,
    pub stats: StatsCell,
    /// Taken as is on poison: observations are pushed and drained whole.
    pub backlog: Mutex<VecDeque<Observation>>,
    pub backlog_cv: Condvar,
    pub hook: Option<Arc<dyn RetileHook>>,
    next_id: AtomicU64,
}

/// A concurrent multi-query engine over one shared [`Tasm`] instance.
///
/// See the crate docs for the architecture. Dropping the service shuts it
/// down with [`Shutdown::Drain`] semantics: the queue drains, workers join,
/// and the retile daemon processes its remaining backlog. Call
/// [`QueryService::shutdown`] (or [`QueryService::shutdown_now`] when the
/// service is shared behind an `Arc`) for the explicit contract and the
/// completed/abandoned counts.
pub struct QueryService {
    shared: Arc<Shared>,
    // Behind mutexes so `shutdown_now` can join them through `&self` (the
    // server shares the service across its reactor and admin threads via
    // `Arc`). Taken as is on poison: a join handle is taken whole.
    workers: Mutex<Vec<JoinHandle<()>>>,
    daemon: Mutex<Option<JoinHandle<()>>>,
}

impl QueryService {
    /// Spawns the worker pool (and, unless [`RetilePolicy::Off`], the
    /// retile daemon) over `tasm`.
    pub fn start(tasm: Arc<Tasm>, cfg: ServiceConfig) -> Self {
        Self::start_with_hook(tasm, cfg, None)
    }

    /// [`QueryService::start`] with a [`RetileHook`] the daemon fires after
    /// every committed re-tile (replication ack-before-durable).
    pub fn start_with_hook(
        tasm: Arc<Tasm>,
        cfg: ServiceConfig,
        hook: Option<Arc<dyn RetileHook>>,
    ) -> Self {
        assert!(cfg.queue_depth > 0, "queue depth must be positive");
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            tasm,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: StatsCell::default(),
            backlog: Mutex::new(VecDeque::new()),
            backlog_cv: Condvar::new(),
            hook,
            next_id: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tasm-query-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn query worker")
            })
            .collect();
        let daemon = (cfg.retile != RetilePolicy::Off).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tasm-retile".to_string())
                .spawn(move || daemon::daemon_loop(&shared))
                .expect("spawn retile daemon")
        });
        QueryService {
            shared,
            workers: Mutex::new(handles),
            daemon: Mutex::new(daemon),
        }
    }

    /// Submits a query, blocking while the queue is at capacity
    /// (backpressure). Returns a handle resolving to the query's outcome.
    pub fn submit(&self, req: QueryRequest) -> Result<QueryHandle, ServiceError> {
        let (done, rx) = channel_completion();
        let id = self.enqueue(req, true, done)?;
        Ok(QueryHandle { id, rx })
    }

    /// Submits a query, failing with [`ServiceError::QueueFull`] instead of
    /// blocking when the queue is at capacity.
    pub fn try_submit(&self, req: QueryRequest) -> Result<QueryHandle, ServiceError> {
        let (done, rx) = channel_completion();
        let id = self.enqueue(req, false, done)?;
        Ok(QueryHandle { id, rx })
    }

    /// Submits a query without blocking, delivering the outcome through
    /// `done` (invoked on the worker thread) instead of a handle — the
    /// completion path for reactor-style callers that must never park.
    /// The callback fires exactly once: with the outcome, a typed
    /// execution error, [`ServiceError::ShuttingDown`] when an abort
    /// shutdown abandons the queued job, or [`ServiceError::WorkerLost`]
    /// if the job is destroyed without ever executing. Returns the
    /// service-assigned query id.
    pub fn try_submit_with(
        &self,
        req: QueryRequest,
        done: impl FnOnce(Result<QueryOutcome, ServiceError>) + Send + 'static,
    ) -> Result<u64, ServiceError> {
        self.enqueue(req, false, CompletionGuard::new(done))
    }

    fn enqueue(
        &self,
        req: QueryRequest,
        block: bool,
        done: CompletionGuard,
    ) -> Result<u64, ServiceError> {
        let mut queue = sync::lock(&self.shared.queue);
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                done.disarm();
                return Err(ServiceError::ShuttingDown);
            }
            if queue.len() < self.shared.cfg.queue_depth {
                break;
            }
            if !block {
                done.disarm();
                return Err(ServiceError::QueueFull);
            }
            queue = sync::wait(&self.shared.not_full, queue);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let trace_id = req.trace_id.unwrap_or_else(tasm_obs::next_trace_id);
        queue.push_back(Job {
            id,
            trace_id,
            req,
            done,
            enqueued: Instant::now(),
        });
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared
            .stats
            .queue_peak
            .fetch_max(queue.len() as u64, Ordering::Relaxed);
        if tasm_obs::enabled() {
            queue_depth_gauge().set(queue.len() as i64);
        }
        drop(queue);
        self.shared.not_empty.notify_one();
        Ok(id)
    }

    /// The shared storage manager.
    pub fn tasm(&self) -> &Arc<Tasm> {
        &self.shared.tasm
    }

    /// Synchronously processes the retile backlog on the calling thread
    /// (deterministic alternative to waiting for the daemon; used by tests
    /// and the CLI's final drain).
    pub fn drain_retile_backlog(&self) {
        let batch: Vec<Observation> = {
            let mut backlog = sync::lock(&self.shared.backlog);
            backlog.drain(..).collect()
        };
        daemon::process_observations(&self.shared, batch);
    }

    /// A snapshot of the aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.snapshot()
    }

    /// Stops accepting queries and shuts the service down under the given
    /// mode: [`Shutdown::Drain`] completes every accepted query and lets
    /// the retile daemon finish its backlog; [`Shutdown::Abort`] abandons
    /// queued-but-unstarted queries (their handles resolve to
    /// [`ServiceError::ShuttingDown`]) and discards the backlog. Either
    /// way all threads — workers and retile daemon — are joined before the
    /// report is returned.
    pub fn shutdown(self, mode: Shutdown) -> ShutdownReport {
        self.shutdown_now(mode)
        // Drop then finds nothing left to join.
    }

    /// [`QueryService::shutdown`] through a shared reference, for callers
    /// holding the service in an `Arc` (the TCP server's serving threads).
    /// Idempotent: a second call joins nothing and reports zero additional
    /// abandoned queries.
    pub fn shutdown_now(&self, mode: Shutdown) -> ShutdownReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut abandoned = 0u64;
        if mode == Shutdown::Abort {
            // Pull queued jobs before waking the workers so none of them
            // starts executing; in-flight queries are left to finish.
            let dropped: Vec<Job> = {
                let mut queue = sync::lock(&self.shared.queue);
                queue.drain(..).collect()
            };
            abandoned = dropped.len() as u64;
            for job in dropped {
                job.done.deliver(Err(ServiceError::ShuttingDown));
            }
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for w in sync::lock(&self.workers).drain(..) {
            let _ = w.join();
        }
        if mode == Shutdown::Abort {
            // Discarded only *after* the workers joined: in-flight queries
            // push observations on completion, and the abort contract says
            // none of them reach the daemon.
            sync::lock(&self.shared.backlog).clear();
        }
        // Wake the daemon after the workers stop producing observations so
        // it drains the final backlog (already cleared under Abort) before
        // exiting.
        self.shared.backlog_cv.notify_all();
        if let Some(d) = sync::lock(&self.daemon).take() {
            let _ = d.join();
        }
        let stats = self.shared.stats.snapshot();
        ShutdownReport {
            mode,
            completed: stats.completed,
            abandoned,
            stats,
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_now(Shutdown::Drain);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = sync::lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    queue_depth_gauge().set(queue.len() as i64);
                    shared.not_full.notify_one();
                    break job;
                }
                // Drain-then-exit: accepted queries complete even when
                // shutdown raced their submission.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = sync::wait(&shared.not_empty, queue);
            }
        };
        let queue_time = job.enqueued.elapsed();
        let spans = tasm_obs::TraceSpans::shared();
        spans.add(tasm_obs::Phase::Queue, queue_time);
        if tasm_obs::enabled() {
            tasm_obs::histogram(
                "tasm_queue_wait_seconds",
                "Time queries spend waiting in the submission queue.",
            )
            .record(queue_time);
        }
        // The unwind boundary: a panic inside query execution fails this
        // query with a typed error and leaves the worker alive. `job`
        // stays outside the closure, so even a panic that somehow escaped
        // would fire the job's completion guard rather than strand the
        // submitter.
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared
                .tasm
                .query_traced(&job.req.video, &job.req.query, &spans)
        }));
        let result = match executed.map_or(Err(ServiceError::Panicked), |r| r.map_err(Into::into)) {
            Ok(result) => result,
            Err(e) => {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                let panicked = matches!(e, ServiceError::Panicked);
                tasm_obs::log::warn(
                    if panicked {
                        "query.panicked"
                    } else {
                        "query.failed"
                    },
                    &[
                        ("trace_id", job.trace_id.to_string()),
                        ("video", job.req.video.clone()),
                        ("error", e.to_string()),
                    ],
                );
                job.done.deliver(Err(e));
                continue;
            }
        };
        shared.stats.record_scan(&result);
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        if shared.cfg.retile != RetilePolicy::Off {
            let mut backlog = sync::lock(&shared.backlog);
            for label in job.req.query.predicate().labels() {
                backlog.push_back(Observation {
                    video: job.req.video.clone(),
                    label: label.to_string(),
                    frames: job.req.query.frame_range(),
                });
            }
            drop(backlog);
            shared.backlog_cv.notify_one();
        }
        // Reuses the completion timestamp for the histogram — the fast path
        // still takes exactly two timing syscalls.
        let total_time = job.enqueued.elapsed();
        shared.stats.latency.record(total_time);
        let trace = spans.finish(job.trace_id, result.epoch, total_time);
        log_if_slow(shared, &job.req.video, &trace, total_time);
        job.done.deliver(Ok(QueryOutcome {
            id: job.id,
            result,
            queue_time,
            total_time,
            trace,
            canvases: Arc::clone(shared.tasm.store().canvases()),
        }));
    }
}

/// Emits the slow-query log line when the configured threshold is met:
/// the full per-phase trace at `warn`, plus a counter bump.
fn log_if_slow(shared: &Shared, video: &str, trace: &tasm_obs::QueryTrace, total: Duration) {
    let Some(threshold) = shared.cfg.slow_query else {
        return;
    };
    if total < threshold {
        return;
    }
    if tasm_obs::enabled() {
        tasm_obs::counter(
            "tasm_slow_queries_total",
            "Completed queries at or above the slow-query threshold.",
        )
        .inc();
    }
    tasm_obs::log::warn(
        "slow_query",
        &[
            ("trace_id", trace.trace_id.to_string()),
            ("video", video.to_string()),
            ("epoch", trace.epoch.to_string()),
            ("queue_us", trace.queue_micros.to_string()),
            ("plan_us", trace.plan_micros.to_string()),
            ("decode_us", trace.decode_micros.to_string()),
            ("total_us", trace.total_micros.to_string()),
            ("threshold_ms", threshold.as_millis().to_string()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job destroyed without running resolves its handle through the
    /// completion guard, not through a closed channel.
    #[test]
    fn a_handle_whose_job_is_dropped_unrun_reports_worker_lost() {
        let (done, rx) = channel_completion();
        drop(done);
        assert!(matches!(rx.try_recv(), Ok(Err(ServiceError::WorkerLost))));
    }
}
