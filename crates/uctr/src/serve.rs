//! Generation-as-a-service: a long-running daemon over the batch pipeline.
//!
//! The batch entry points ([`crate::pipeline::UctrPipeline::generate`] and
//! friends) synthesize a corpus in one shot. Downstream consumers — the
//! self-training loops of the paper's follow-up work, counterfactual
//! augmentation pipelines — instead consume generation *on demand*: many
//! small requests, concurrent clients, and a tail-latency budget. This
//! module turns the pipeline into that service:
//!
//! * **Per-client RNG namespaces.** A request carries its own seed, and
//!   [`crate::pipeline::UctrPipeline::generate_request`] derives every
//!   input's RNG stream from `(request seed, input index)` alone. Same
//!   request bytes ⇒ byte-identical samples, regardless of worker
//!   interleaving, worker count, or co-running requests.
//! * **One bounded FIFO with explicit backpressure.** Every worker blocks
//!   on one queue and takes whole requests in arrival order (a request
//!   never splits across workers — that is what keeps interleaving away
//!   from the sample bytes). Once `queue_bound × shards` requests wait,
//!   admission rejects immediately with a `retry_after_ms` hint instead of
//!   buffering without bound.
//! * **Worker-owned warm scratch.** Each worker owns one [`GenScratch`]
//!   (which embeds the per-kind executor/kernel scratches of the
//!   near-zero-alloc path) for its whole life, so every request after a
//!   worker's first skips cold buffer growth.
//! * **Live telemetry.** Per-worker [`TelemetryBank`]s aggregate the same
//!   funnel counters as the batch paths plus per-request histograms of
//!   end-to-end latency ([`Timer::Request`]) and of its two parts, queue
//!   wait ([`Timer::QueueWait`]) and service ([`Timer::Service`]);
//!   [`Daemon::stats`] merges them into a [`PipelineReport`] snapshot
//!   served over the wire.
//!
//! The wire protocol is deliberately tiny: length-prefixed JSON frames
//! (4-byte big-endian length, then a UTF-8 [`GenRequest`]/[`GenResponse`]
//! body) over TCP — no new dependencies, and a `loadgen` client fits in a
//! page of code. Both ends set `TCP_NODELAY` and write each frame with one
//! `write_all`, so no response waits on the peer's delayed ACK. A response
//! sends each evidence table once and its samples cite the tables by index
//! (see [`GenResponse`]). See DESIGN.md §11 for the request lifecycle.

use crate::pipeline::{TableWithContext, UctrConfig, UctrPipeline};
use crate::program::GenScratch;
use crate::sample::{samples_from_wire, samples_to_wire, Sample};
use crate::telemetry::{PipelineReport, TelemetryBank, Timer};
use nlgen::NoiseConfig;
use serde::{field, Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};
use tabular::Table;

/// Hard cap on one wire frame (64 MiB): a table batch larger than this is
/// a protocol error, not a bigger buffer.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Hard cap on the per-request `samples_per_table` override, so one
/// request cannot monopolize a worker for an unbounded stretch.
pub const MAX_SAMPLES_PER_TABLE: usize = 64;

// ---------------------------------------------------------------------------
// Wire types.
// ---------------------------------------------------------------------------

/// One table in wire form: the header row followed by the body rows, all
/// as strings (cell typing is re-inferred daemon-side by
/// [`Table::from_strings`], exactly like every batch ingestion path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireTable {
    pub title: String,
    /// `rows[0]` is the header; remaining rows are the body.
    pub rows: Vec<Vec<String>>,
    /// Optional surrounding paragraph (enables the table-expansion source).
    pub paragraph: Option<String>,
    pub topic: String,
}

impl WireTable {
    /// Renders a pipeline input into wire form (client side).
    pub fn from_input(input: &TableWithContext) -> WireTable {
        let t = &input.table;
        let mut rows = Vec::with_capacity(t.n_rows() + 1);
        rows.push(
            (0..t.n_cols()).map(|c| t.column_name(c).unwrap_or_default().to_string()).collect(),
        );
        for r in 0..t.n_rows() {
            rows.push(
                (0..t.n_cols())
                    .map(|c| t.cell(r, c).map(|v| v.to_string()).unwrap_or_default())
                    .collect(),
            );
        }
        WireTable {
            title: t.title.clone(),
            rows,
            paragraph: input.paragraph.clone(),
            topic: input.topic.clone(),
        }
    }

    /// Parses the wire form back into a pipeline input (daemon side).
    pub fn to_input(&self) -> Result<TableWithContext, String> {
        let grid: Vec<Vec<&str>> =
            self.rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
        let table = Table::from_strings(self.title.as_str(), &grid)
            .map_err(|e| format!("table `{}`: {e}", self.title))?;
        Ok(TableWithContext {
            table: table.into(),
            paragraph: self.paragraph.clone(),
            topic: self.topic.clone(),
        })
    }
}

/// The sample specification of one request: which task's pipeline runs,
/// under which client seed, and how many programs to attempt per table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestSpec {
    /// `"qa"` or `"verification"`.
    pub task: String,
    /// The client's RNG namespace: every sample byte of the response is a
    /// pure function of `(seed, tables, spec)`.
    pub seed: u64,
    /// Programs attempted per table per enabled source; `0` uses the
    /// daemon default. Capped at [`MAX_SAMPLES_PER_TABLE`].
    pub samples_per_table: usize,
}

impl RequestSpec {
    pub fn qa(seed: u64) -> RequestSpec {
        RequestSpec { task: "qa".into(), seed, samples_per_table: 0 }
    }

    pub fn verification(seed: u64) -> RequestSpec {
        RequestSpec { task: "verification".into(), seed, samples_per_table: 0 }
    }
}

/// One wire request. `op` selects the action: `"generate"` queues the
/// table batch for synthesis; `"stats"` returns a live telemetry snapshot
/// without queueing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenRequest {
    pub op: String,
    /// Client-chosen correlation id, echoed on the response. Not part of
    /// the RNG namespace: two requests differing only in `id` yield
    /// byte-identical samples.
    pub id: u64,
    pub spec: RequestSpec,
    pub tables: Vec<WireTable>,
}

impl GenRequest {
    pub fn generate(id: u64, spec: RequestSpec, tables: Vec<WireTable>) -> GenRequest {
        GenRequest { op: "generate".into(), id, spec, tables }
    }

    pub fn stats(id: u64) -> GenRequest {
        GenRequest { op: "stats".into(), id, spec: RequestSpec::qa(0), tables: Vec::new() }
    }
}

/// One wire response. `status` is `"ok"`, `"rejected"` (backpressure —
/// retry after `retry_after_ms`), or `"error"` (malformed request; `message`
/// says why).
///
/// Its JSON form does not repeat evidence tables per sample: a `tables`
/// list holds each distinct evidence table once, and each sample names its
/// table by index plus, for split evidence, the omitted row. The form is
/// self-contained (it decodes without its request), and decoding checks
/// every index and row, returning an error rather than panicking.
#[derive(Debug, Clone, PartialEq)]
pub struct GenResponse {
    pub id: u64,
    pub status: String,
    /// Non-zero only when `status == "rejected"`.
    pub retry_after_ms: u64,
    pub message: String,
    pub samples: Vec<Sample>,
    /// Time the request waited in the queue before a worker took it.
    pub queue_ns: u64,
    /// Time the worker spent generating (parse + synthesis).
    pub service_ns: u64,
    /// Populated only for `"stats"` responses.
    pub stats: Option<ServeStats>,
}

impl GenResponse {
    fn base(id: u64, status: &str) -> GenResponse {
        GenResponse {
            id,
            status: status.into(),
            retry_after_ms: 0,
            message: String::new(),
            samples: Vec::new(),
            queue_ns: 0,
            service_ns: 0,
            stats: None,
        }
    }

    pub fn error(id: u64, message: &str) -> GenResponse {
        let mut r = GenResponse::base(id, "error");
        r.message = message.into();
        r
    }

    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    pub fn is_rejected(&self) -> bool {
        self.status == "rejected"
    }
}

impl Serialize for GenResponse {
    fn to_value(&self) -> Value {
        let (tables, samples) = samples_to_wire(&self.samples);
        Value::Obj(vec![
            ("id".to_string(), self.id.to_value()),
            ("status".to_string(), self.status.to_value()),
            ("retry_after_ms".to_string(), self.retry_after_ms.to_value()),
            ("message".to_string(), self.message.to_value()),
            ("tables".to_string(), tables),
            ("samples".to_string(), samples),
            ("queue_ns".to_string(), self.queue_ns.to_value()),
            ("service_ns".to_string(), self.service_ns.to_value()),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }
}

impl Deserialize for GenResponse {
    fn from_value(v: &Value) -> Result<GenResponse, serde::Error> {
        let o = v.as_obj().ok_or_else(|| serde::Error::expected("object", v))?;
        let required = |name: &str| v.get(name).ok_or_else(|| serde::Error::missing_field(name));
        Ok(GenResponse {
            id: field(o, "id")?,
            status: field(o, "status")?,
            retry_after_ms: field(o, "retry_after_ms")?,
            message: field(o, "message")?,
            samples: samples_from_wire(required("tables")?, required("samples")?)?,
            queue_ns: field(o, "queue_ns")?,
            service_ns: field(o, "service_ns")?,
            stats: field(o, "stats")?,
        })
    }
}

/// A live snapshot of the daemon's counters and merged telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Worker count ([`ServeConfig::shards`]).
    pub shards: u64,
    /// [`ServeConfig::queue_bound`]; the queue holds `queue_bound × shards`.
    pub queue_bound: u64,
    pub requests_admitted: u64,
    pub requests_rejected: u64,
    pub requests_completed: u64,
    pub requests_failed: u64,
    pub samples_generated: u64,
    /// Requests served on a worker's warm scratch.
    pub pool_hits: u64,
    /// Requests served on cold scratch: each worker's first.
    pub pool_misses: u64,
    /// Always 0: workers share one queue, so no request is stolen. The
    /// field stays only because the repository benchmark (`perfbench`)
    /// reads it; removing it waits for a change to that benchmark.
    pub requests_stolen: u64,
    /// Requests waiting in the queue at snapshot time.
    pub queue_depth: u64,
    /// Worker banks merged into one report; its `request` timing histogram
    /// is the daemon-side end-to-end latency distribution.
    pub report: PipelineReport,
}

// ---------------------------------------------------------------------------
// Admission errors.
// ---------------------------------------------------------------------------

/// Why [`Daemon::submit`] refused to queue a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its bound: explicit backpressure. Retry after the
    /// hinted delay; nothing was buffered.
    Rejected { retry_after_ms: u64 },
    /// The request can never succeed as written (unknown op or task,
    /// daemon shutting down); retrying without changes is pointless.
    Invalid(String),
}

impl SubmitError {
    /// The wire response equivalent of this admission failure.
    pub fn into_response(self, id: u64) -> GenResponse {
        match self {
            SubmitError::Rejected { retry_after_ms } => {
                let mut r = GenResponse::base(id, "rejected");
                r.retry_after_ms = retry_after_ms;
                r.message = "queue full; retry after retry_after_ms".into();
                r
            }
            SubmitError::Invalid(message) => GenResponse::error(id, &message),
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon configuration.
// ---------------------------------------------------------------------------

/// Daemon sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker count.
    pub shards: usize,
    /// Queue bound per worker: admission rejects once `queue_bound ×
    /// shards` requests are waiting.
    pub queue_bound: usize,
    /// The retry hint carried by rejection responses.
    pub retry_after_ms: u64,
    /// Generation-noise setting of the shared NL generator (pipeline-level:
    /// requests cannot override it). Defaults to off so that serving is
    /// byte-stable by default.
    pub noise: NoiseConfig,
    /// Start without workers (tests fill the queue deterministically, then
    /// call [`Daemon::resume`]).
    pub paused: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue_bound: 64,
            retry_after_ms: 5,
            noise: NoiseConfig::off(),
            paused: false,
        }
    }
}

impl ServeConfig {
    pub fn with_shards(shards: usize) -> ServeConfig {
        ServeConfig { shards: shards.max(1), ..ServeConfig::default() }
    }
}

// ---------------------------------------------------------------------------
// The daemon.
// ---------------------------------------------------------------------------

struct Job {
    request: GenRequest,
    enqueued: Instant,
    reply: mpsc::Sender<GenResponse>,
}

/// What the queue lock guards. The shutdown flag sits beside the jobs so
/// that admission and a worker's exit test read it under the lock that
/// orders every push and pop: no request is queued after the workers left.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// Recovers the guard from a poisoned mutex: the protected state (a queue
/// of jobs, a list of worker handles) stays structurally sound across a
/// worker panic, and stalling every other client on a poisoned lock would
/// turn one bad request into a full outage.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Inner {
    cfg: ServeConfig,
    pipeline: UctrPipeline,
    qa_base: UctrConfig,
    verification_base: UctrConfig,
    queue: Mutex<Queue>,
    /// Notified once per admitted job, and for every worker at shutdown.
    ready: Condvar,
    /// One bank per worker, written only by that worker.
    banks: Vec<TelemetryBank>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    samples: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
}

/// The generation daemon: one bounded FIFO in front of one shared
/// [`UctrPipeline`]. See the module docs for the design contract.
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Daemon {
    /// Builds the daemon (one shared pipeline, `cfg.shards` workers) and —
    /// unless `cfg.paused` — spawns the workers.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Daemon> {
        let cfg = ServeConfig { shards: cfg.shards.max(1), ..cfg };
        let qa_base = UctrConfig { noise: cfg.noise, ..UctrConfig::qa() };
        let verification_base = UctrConfig { noise: cfg.noise, ..UctrConfig::verification() };
        let pipeline = UctrPipeline::new(qa_base.clone());
        let banks = (0..cfg.shards).map(|_| TelemetryBank::new()).collect();
        let paused = cfg.paused;
        let daemon = Daemon {
            inner: Arc::new(Inner {
                cfg,
                pipeline,
                qa_base,
                verification_base,
                queue: Mutex::new(Queue::default()),
                ready: Condvar::new(),
                banks,
                admitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                samples: AtomicU64::new(0),
                pool_hits: AtomicU64::new(0),
                pool_misses: AtomicU64::new(0),
            }),
            workers: Mutex::new(Vec::new()),
        };
        if !paused {
            daemon.resume()?;
        }
        Ok(daemon)
    }

    /// Spawns the worker threads (no-op when they are already running).
    /// Paused daemons use this after tests have staged the queue.
    pub fn resume(&self) -> std::io::Result<()> {
        let mut workers = lock(&self.workers);
        if !workers.is_empty() {
            return Ok(());
        }
        for me in 0..self.inner.banks.len() {
            let inner = Arc::clone(&self.inner);
            let handle = thread::Builder::new()
                .name(format!("uctr-serve-{me}"))
                .spawn(move || worker_loop(&inner, &inner.banks[me]))?;
            workers.push(handle);
        }
        Ok(())
    }

    /// Queues a generate request. `Ok` carries the receiver the worker's
    /// response arrives on; `Err` is an immediate admission verdict —
    /// nothing was buffered.
    pub fn submit(&self, request: GenRequest) -> Result<mpsc::Receiver<GenResponse>, SubmitError> {
        let inner = &self.inner;
        if request.op != "generate" {
            return Err(SubmitError::Invalid(format!("op `{}` cannot be queued", request.op)));
        }
        if let Err(e) = inner.request_config(&request.spec) {
            return Err(SubmitError::Invalid(e));
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock(&inner.queue);
            if q.shutting_down {
                return Err(SubmitError::Invalid("daemon is shutting down".into()));
            }
            if q.jobs.len() >= inner.cfg.queue_bound.saturating_mul(inner.cfg.shards) {
                drop(q);
                inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Rejected { retry_after_ms: inner.cfg.retry_after_ms });
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "Serving-latency measurement points (enqueue timestamp and service-start \
                          timestamp) feed the request latency histogram and the \
                          queue_ns/service_ns response fields; sample bytes are derived solely \
                          from the request seed, so wall-clock reads cannot perturb generated \
                          data."
            )]
            q.jobs.push_back(Job { request, enqueued: Instant::now(), reply: tx });
        }
        inner.ready.notify_one();
        inner.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(rx)
    }

    /// Serves one already-parsed request to completion (the wire handler
    /// and in-process callers share this path).
    pub fn dispatch(&self, request: GenRequest) -> GenResponse {
        let id = request.id;
        match request.op.as_str() {
            "generate" => match self.submit(request) {
                Ok(rx) => match rx.recv() {
                    Ok(response) => response,
                    Err(_) => GenResponse::error(id, "daemon shut down before completion"),
                },
                Err(e) => e.into_response(id),
            },
            "stats" => {
                let mut r = GenResponse::base(id, "ok");
                r.stats = Some(self.stats());
                r
            }
            other => GenResponse::error(id, &format!("unknown op `{other}`")),
        }
    }

    /// A live snapshot: admission/completion counters plus every worker's
    /// telemetry merged into one [`PipelineReport`].
    pub fn stats(&self) -> ServeStats {
        let inner = &self.inner;
        let merged = TelemetryBank::new();
        for bank in &inner.banks {
            merged.merge(bank);
        }
        ServeStats {
            shards: inner.cfg.shards as u64,
            queue_bound: inner.cfg.queue_bound as u64,
            requests_admitted: inner.admitted.load(Ordering::Relaxed),
            requests_rejected: inner.rejected.load(Ordering::Relaxed),
            requests_completed: inner.completed.load(Ordering::Relaxed),
            requests_failed: inner.failed.load(Ordering::Relaxed),
            samples_generated: inner.samples.load(Ordering::Relaxed),
            pool_hits: inner.pool_hits.load(Ordering::Relaxed),
            pool_misses: inner.pool_misses.load(Ordering::Relaxed),
            requests_stolen: 0,
            queue_depth: lock(&inner.queue).jobs.len() as u64,
            report: merged.report(inner.cfg.shards),
        }
    }

    /// Drains the queue, stops the workers, and joins them. Requests
    /// admitted before the call still complete (on a paused daemon, once
    /// it is resumed); later submissions are refused.
    pub fn shutdown(&self) {
        lock(&self.inner.queue).shutting_down = true;
        self.inner.ready.notify_all();
        let handles = std::mem::take(&mut *lock(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
    }

    // -- TCP front-end ------------------------------------------------------

    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and spawns the accept loop.
    /// Returns the bound address (with the OS-assigned port resolved).
    pub fn spawn_listener(
        self: &Arc<Daemon>,
        addr: &str,
    ) -> std::io::Result<(SocketAddr, thread::JoinHandle<()>)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let daemon = Arc::clone(self);
        let handle = thread::Builder::new()
            .name("uctr-serve-accept".into())
            .spawn(move || daemon.accept_loop(listener))?;
        Ok((local, handle))
    }

    /// Blocking accept loop (the `uctr-served` bin runs this on its main
    /// thread). One thread per connection; connections are independent.
    pub fn accept_loop(self: Arc<Daemon>, listener: TcpListener) {
        for stream in listener.incoming() {
            if lock(&self.inner.queue).shutting_down {
                return;
            }
            let Ok(stream) = stream else { continue };
            let daemon = Arc::clone(&self);
            let _ = thread::Builder::new()
                .name("uctr-serve-conn".into())
                .spawn(move || daemon.handle_conn(stream));
        }
    }

    fn handle_conn(self: Arc<Daemon>, mut stream: TcpStream) {
        // Without it, Nagle holds each response until the client's delayed
        // ACK (~40 ms on Linux).
        if stream.set_nodelay(true).is_err() {
            return;
        }
        loop {
            let frame = match read_frame(&mut stream, MAX_FRAME_BYTES) {
                Ok(Some(frame)) => frame,
                Ok(None) | Err(_) => return,
            };
            let parsed = std::str::from_utf8(&frame)
                .ok()
                .and_then(|text| serde_json::from_str::<GenRequest>(text).ok());
            let response = match parsed {
                Some(request) => self.dispatch(request),
                None => GenResponse::error(0, "malformed request frame"),
            };
            let Ok(json) = serde_json::to_string(&response) else { return };
            if write_frame(&mut stream, json.as_bytes()).is_err() {
                return;
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Resolves a request spec into the per-request pipeline config.
    fn request_config(&self, spec: &RequestSpec) -> Result<UctrConfig, String> {
        let mut cfg = match spec.task.as_str() {
            "qa" => self.qa_base.clone(),
            "verification" => self.verification_base.clone(),
            other => {
                return Err(format!("unknown task `{other}` (expected `qa` or `verification`)"))
            }
        };
        cfg.seed = spec.seed;
        if spec.samples_per_table > 0 {
            cfg.samples_per_table = spec.samples_per_table.min(MAX_SAMPLES_PER_TABLE);
        }
        Ok(cfg)
    }

    /// Blocks until a job is queued and pops the oldest. `None` only once
    /// shutdown has begun and the queue is empty: a worker pops before it
    /// looks at the flag, so it drains every admitted job before it exits.
    fn next_job(&self) -> Option<Job> {
        let idle = |q: &mut Queue| q.jobs.is_empty() && !q.shutting_down;
        let mut q = match self.ready.wait_while(lock(&self.queue), idle) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        q.jobs.pop_front()
    }

    /// Runs one job to completion on a worker's scratch and bank, and
    /// sends the response.
    fn process(&self, job: Job, tel: &TelemetryBank, scratch: &mut GenScratch) {
        let queue_ns = elapsed_ns(&job.enqueued);
        #[expect(
            clippy::disallowed_methods,
            reason = "Serving-latency measurement points (enqueue timestamp and service-start \
                      timestamp) feed the request latency histogram and the queue_ns/service_ns \
                      response fields; sample bytes are derived solely from the request seed, so \
                      wall-clock reads cannot perturb generated data."
        )]
        let service_started = Instant::now();
        let outcome = self.run(&job.request, tel, scratch);
        let service_ns = elapsed_ns(&service_started);
        let mut response = match outcome {
            Ok(samples) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.samples.fetch_add(samples.len() as u64, Ordering::Relaxed);
                let mut r = GenResponse::base(job.request.id, "ok");
                r.samples = samples;
                r
            }
            Err(message) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                GenResponse::error(job.request.id, &message)
            }
        };
        response.queue_ns = queue_ns;
        response.service_ns = service_ns;
        tel.time(Timer::QueueWait, Duration::from_nanos(queue_ns));
        tel.time(Timer::Service, Duration::from_nanos(service_ns));
        tel.time(Timer::Request, job.enqueued.elapsed());
        // A vanished client (dropped receiver) is not a daemon error.
        let _ = job.reply.send(response);
    }

    /// Parses the tables and runs the pipeline under the request config.
    fn run(
        &self,
        request: &GenRequest,
        tel: &TelemetryBank,
        scratch: &mut GenScratch,
    ) -> Result<Vec<Sample>, String> {
        let cfg = self.request_config(&request.spec)?;
        let mut inputs = Vec::with_capacity(request.tables.len());
        for wire in &request.tables {
            inputs.push(wire.to_input()?);
        }
        let mut out = Vec::new();
        self.pipeline.generate_request(&cfg, &inputs, &mut out, tel, scratch);
        Ok(out)
    }
}

fn elapsed_ns(started: &Instant) -> u64 {
    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

fn worker_loop(inner: &Inner, tel: &TelemetryBank) {
    // One scratch for the worker's whole life: its first request runs on
    // cold buffers (a pool miss), every later one on warm buffers (a hit).
    let mut scratch = GenScratch::default();
    let mut warm = false;
    while let Some(job) = inner.next_job() {
        let pool = if warm { &inner.pool_hits } else { &inner.pool_misses };
        pool.fetch_add(1, Ordering::Relaxed);
        inner.process(job, tel, &mut scratch);
        warm = true;
    }
}

// ---------------------------------------------------------------------------
// Wire framing and the client.
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame (4-byte big-endian length + payload)
/// with a single `write_all`, so a frame never leaves as a 4-byte runt
/// segment followed by its body.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| Error::new(ErrorKind::InvalidInput, "frame exceeds the u32 length prefix"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF (connection closed between
/// frames); EOF inside a frame is an error, as is a length above `max`.
pub fn read_frame(r: &mut impl Read, max: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed mid-header"))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A minimal blocking client for the wire protocol (one request in flight
/// per connection).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, request: &GenRequest) -> Result<GenResponse, String> {
        let json = serde_json::to_string(request).map_err(|e| e.to_string())?;
        write_frame(&mut self.stream, json.as_bytes()).map_err(|e| e.to_string())?;
        let frame = read_frame(&mut self.stream, MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "connection closed before a response arrived".to_string())?;
        let text = std::str::from_utf8(&frame).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_tables() -> Vec<WireTable> {
        vec![WireTable {
            title: "Teams".into(),
            rows: vec![
                vec!["team".into(), "city".into(), "points".into(), "wins".into()],
                vec!["Reds".into(), "Oslo".into(), "77".into(), "21".into()],
                vec!["Blues".into(), "Lima".into(), "64".into(), "18".into()],
                vec!["Greens".into(), "Kyiv".into(), "81".into(), "24".into()],
                vec!["Golds".into(), "Quito".into(), "59".into(), "15".into()],
            ],
            paragraph: None,
            topic: "sports".into(),
        }]
    }

    fn recv(rx: Result<mpsc::Receiver<GenResponse>, SubmitError>, what: &str) -> GenResponse {
        match rx {
            Ok(rx) => match rx.recv() {
                Ok(response) => response,
                Err(e) => panic!("{what}: worker dropped the reply channel: {e}"),
            },
            Err(e) => panic!("{what}: submission refused: {e:?}"),
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap_or_else(|e| panic!("write_frame: {e}"));
        write_frame(&mut buf, b"").unwrap_or_else(|e| panic!("write_frame: {e}"));
        let mut cursor = std::io::Cursor::new(buf);
        let first =
            read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap_or_else(|e| panic!("read_frame: {e}"));
        assert_eq!(first.as_deref(), Some(&b"hello"[..]));
        let second =
            read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap_or_else(|e| panic!("read_frame: {e}"));
        assert_eq!(second.as_deref(), Some(&b""[..]));
        let eof = read_frame(&mut cursor, MAX_FRAME_BYTES)
            .unwrap_or_else(|e| panic!("read_frame at EOF: {e}"));
        assert!(eof.is_none(), "clean EOF must be None");
    }

    #[test]
    fn frame_guards_against_oversize_and_truncation() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"0123456789").unwrap_or_else(|e| panic!("write_frame: {e}"));
        // Cap below the frame size: refused before allocation.
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert!(read_frame(&mut cursor, 4).is_err());
        // Truncated payload: UnexpectedEof, not a silent short frame.
        let mut truncated = std::io::Cursor::new(buf[..8].to_vec());
        assert!(read_frame(&mut truncated, MAX_FRAME_BYTES).is_err());
        // Truncated header: also an error (but empty input is clean EOF).
        let mut header_cut = std::io::Cursor::new(vec![0u8, 0, 0]);
        assert!(read_frame(&mut header_cut, MAX_FRAME_BYTES).is_err());
    }

    #[test]
    fn wire_table_round_trips() {
        let wire = &wire_tables()[0];
        let input = wire.to_input().unwrap_or_else(|e| panic!("to_input: {e}"));
        assert_eq!(input.table.n_rows(), 4);
        assert_eq!(input.table.n_cols(), 4);
        assert_eq!(input.topic, "sports");
        let back = WireTable::from_input(&input);
        assert_eq!(&back, wire);
        // Ragged rows are refused with the table named.
        let mut bad = wire.clone();
        bad.rows[2].pop();
        let err = match bad.to_input() {
            Err(e) => e,
            Ok(_) => panic!("ragged wire table must be rejected"),
        };
        assert!(err.contains("Teams"), "{err}");
    }

    #[test]
    fn request_json_round_trips() {
        for seed in [42, u64::MAX, (1 << 63) + 5] {
            let request = GenRequest::generate(7, RequestSpec::qa(seed), wire_tables());
            let json = serde_json::to_string(&request).unwrap_or_else(|e| panic!("serialize: {e}"));
            let back: GenRequest =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("deserialize: {e}"));
            assert_eq!(back, request, "seed {seed}");
            // A spec field this version no longer has (older clients still
            // send one) is ignored: decoding looks fields up by name.
            let legacy =
                json.replace(r#""samples_per_table":0"#, r#""samples_per_table":0,"retired":1"#);
            assert_ne!(legacy, json);
            let back: GenRequest =
                serde_json::from_str(&legacy).unwrap_or_else(|e| panic!("legacy request: {e}"));
            assert_eq!(back, request, "seed {seed}");
        }
    }

    #[test]
    fn response_sends_each_table_once_and_round_trips() {
        let daemon = Daemon::start(ServeConfig::with_shards(1))
            .unwrap_or_else(|e| panic!("daemon start: {e}"));
        let response = daemon.dispatch(GenRequest::generate(
            3,
            RequestSpec::qa(9),
            wire_tables_with_paragraph(),
        ));
        daemon.shutdown();
        assert!(response.is_ok(), "{}", response.message);
        let json = serde_json::to_string(&response).unwrap_or_else(|e| panic!("serialize: {e}"));
        let tree = serde_json::parse_value(&json).unwrap_or_else(|e| panic!("parse: {e}"));
        let tables = tree.get("tables").and_then(Value::as_arr).map_or(0, <[Value]>::len);
        // At most the two inputs and their text-only empty tables, however
        // many samples cite them.
        assert!(tables <= 4, "{tables} tables for {} samples", response.samples.len());
        assert!(response.samples.len() > tables);
        let back: GenResponse =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("deserialize: {e}"));
        assert_eq!(back, response);
        assert_eq!(format!("{back:?}"), format!("{response:?}"));
        // Views decoded against one base share it: the samples hold no
        // more distinct base handles than the response sent tables.
        assert!(back.samples.iter().any(|s| s.table.omitted_row().is_some()));
        let mut bases: Vec<&tabular::SharedTable> = Vec::new();
        for base in back.samples.iter().map(|s| s.table.base()) {
            if !bases.iter().any(|b| tabular::SharedTable::ptr_eq(b, base)) {
                bases.push(base);
            }
        }
        assert_eq!(bases.len(), tables);
    }

    #[test]
    fn response_decode_rejects_bad_table_index_and_row() {
        let table = |rows: usize| {
            let body: String = (0..rows).map(|r| format!(",[{{\"Text\":\"r{r}\"}}]")).collect();
            format!(
                r#"{{"title":"t","schema":{{"columns":[{{"name":"a","ty":"Text"}}]}},"rows":[{}]}}"#,
                body.trim_start_matches(',')
            )
        };
        let response = |tables: &str, sample_table: &str| {
            format!(
                r#"{{"id":1,"status":"ok","retry_after_ms":0,"message":"","tables":[{tables}],"samples":[{{{sample_table},"context":[],"text":"q","label":{{"Answer":"a"}},"evidence":"TableOnly","program":"None","answer_kind":"Span","topic":""}}],"queue_ns":0,"service_ns":0,"stats":null}}"#
            )
        };
        let two_rows = table(2);
        let ok = serde_json::from_str::<GenResponse>(&response(
            &two_rows,
            r#""table":0,"omitted_row":1"#,
        ))
        .unwrap_or_else(|e| panic!("a valid response must decode: {e}"));
        assert_eq!(ok.samples[0].table.n_rows(), 1);
        for (what, tables, sample_table) in [
            ("index past the list", two_rows.clone(), r#""table":1"#),
            ("index into an empty list", String::new(), r#""table":0"#),
            ("omitted row past its base", two_rows.clone(), r#""table":0,"omitted_row":2"#),
            ("negative index", two_rows.clone(), r#""table":-1"#),
            ("missing index", two_rows.clone(), r#""omitted_row":0"#),
        ] {
            let json = response(&tables, sample_table);
            assert!(serde_json::from_str::<GenResponse>(&json).is_err(), "{what}: {json}");
        }
        // A response without its table list (the pre-shared-table form)
        // is refused too.
        let inline = r#"{"id":1,"status":"ok","retry_after_ms":0,"message":"","samples":[],"queue_ns":0,"service_ns":0,"stats":null}"#;
        assert!(serde_json::from_str::<GenResponse>(inline).is_err());
    }

    #[test]
    fn submit_validates_op_and_task() {
        let daemon = Daemon::start(ServeConfig { paused: true, ..ServeConfig::default() })
            .unwrap_or_else(|e| panic!("daemon start: {e}"));
        let stats_req = GenRequest::stats(1);
        assert!(matches!(daemon.submit(stats_req), Err(SubmitError::Invalid(_))));
        let mut bad_task = GenRequest::generate(2, RequestSpec::qa(1), Vec::new());
        bad_task.spec.task = "summarization".into();
        let err = match daemon.submit(bad_task) {
            Err(SubmitError::Invalid(e)) => e,
            other => panic!("unknown task must be invalid, got {other:?}"),
        };
        assert!(err.contains("summarization"), "{err}");
    }

    #[test]
    fn backpressure_rejects_at_the_bound_and_drains_after_resume() {
        let daemon = Daemon::start(ServeConfig {
            shards: 1,
            queue_bound: 2,
            retry_after_ms: 7,
            paused: true,
            ..ServeConfig::default()
        })
        .unwrap_or_else(|e| panic!("daemon start: {e}"));
        let request = GenRequest::generate(1, RequestSpec::qa(5), wire_tables());
        let rx1 = daemon.submit(request.clone());
        let rx2 = daemon.submit(request.clone());
        assert!(rx1.is_ok() && rx2.is_ok(), "bound admits exactly queue_bound requests");
        // Third submission hits the bound: immediate rejection with the
        // configured retry hint, nothing buffered.
        match daemon.submit(request.clone()) {
            Err(SubmitError::Rejected { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
            other => panic!("expected rejection at the bound, got {other:?}"),
        }
        assert_eq!(daemon.stats().requests_rejected, 1);
        assert_eq!(daemon.stats().queue_depth, 2);
        daemon.resume().unwrap_or_else(|e| panic!("resume: {e}"));
        let a = recv(rx1, "first queued request");
        let b = recv(rx2, "second queued request");
        assert!(a.is_ok() && b.is_ok());
        assert!(!a.samples.is_empty());
        // Identical request bytes ⇒ byte-identical samples.
        assert_eq!(a.samples, b.samples);
        // The rejected request succeeds on retry and reproduces the same
        // bytes again.
        let c = recv(daemon.submit(request), "retried request");
        assert_eq!(c.samples, a.samples);
        let stats = daemon.stats();
        assert_eq!(stats.requests_completed, 3);
        assert_eq!(stats.samples_generated % 3, 0);
        let request_hist = stats
            .report
            .timing("request")
            .unwrap_or_else(|| panic!("stats must carry the request histogram"));
        assert_eq!(request_hist.count, 3);
        assert!(request_hist.quantile_ns(0.99) > 0);
        // Queue wait and service are recorded apart, one each per request
        // (two of the three waited behind the paused workers).
        for name in ["queue_wait", "service"] {
            let hist = stats.report.timing(name).unwrap_or_else(|| panic!("{name} histogram"));
            assert_eq!(hist.count, 3, "{name}");
            assert!((1..=request_hist.total_ns).contains(&hist.total_ns), "{name}");
        }
        daemon.shutdown();
    }

    #[test]
    fn shutdown_serves_every_admitted_request_then_refuses() {
        let request = |id: u64| GenRequest::generate(id, RequestSpec::qa(40 + id), wire_tables());
        let fresh: Vec<Vec<Sample>> = {
            let daemon = Daemon::start(ServeConfig::with_shards(1))
                .unwrap_or_else(|e| panic!("daemon start: {e}"));
            (0..3).map(|id| daemon.dispatch(request(id)).samples).collect()
        };
        let daemon =
            Daemon::start(ServeConfig { shards: 2, paused: true, ..ServeConfig::default() })
                .unwrap_or_else(|e| panic!("daemon start: {e}"));
        let receivers: Vec<_> = (0..3).map(|id| daemon.submit(request(id))).collect();
        daemon.resume().unwrap_or_else(|e| panic!("resume: {e}"));
        daemon.shutdown();
        for (id, rx) in receivers.into_iter().enumerate() {
            let response = recv(rx, "request admitted before shutdown");
            assert!(response.is_ok(), "request {id}: {}", response.message);
            assert_eq!(response.samples, fresh[id], "request {id}");
        }
        assert_eq!(daemon.stats().requests_completed, 3);
        assert!(matches!(daemon.submit(request(3)), Err(SubmitError::Invalid(_))));
        // Idle workers block without a timeout, so a lost wake-up would hang
        // one of these shutdowns.
        for _ in 0..100 {
            Daemon::start(ServeConfig::with_shards(4))
                .unwrap_or_else(|e| panic!("daemon start: {e}"))
                .shutdown();
        }
    }

    #[test]
    fn response_id_echoes_and_ids_do_not_change_bytes() {
        let daemon = Daemon::start(ServeConfig::with_shards(1))
            .unwrap_or_else(|e| panic!("daemon start: {e}"));
        let a =
            daemon.dispatch(GenRequest::generate(11, RequestSpec::verification(3), wire_tables()));
        let b =
            daemon.dispatch(GenRequest::generate(99, RequestSpec::verification(3), wire_tables()));
        assert_eq!(a.id, 11);
        assert_eq!(b.id, 99);
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(a.samples, b.samples, "the correlation id is outside the RNG namespace");
        // Different seeds are different namespaces.
        let c =
            daemon.dispatch(GenRequest::generate(12, RequestSpec::verification(4), wire_tables()));
        assert_ne!(a.samples, c.samples, "distinct seeds must diverge");
        daemon.shutdown();
    }

    #[test]
    fn samples_per_table_override_is_capped() {
        let daemon = Daemon::start(ServeConfig::with_shards(1))
            .unwrap_or_else(|e| panic!("daemon start: {e}"));
        let mut spec = RequestSpec::qa(5);
        spec.samples_per_table = 1;
        let small = daemon.dispatch(GenRequest::generate(1, spec.clone(), wire_tables()));
        spec.samples_per_table = usize::MAX;
        let capped = daemon.dispatch(GenRequest::generate(2, spec, wire_tables()));
        assert!(small.is_ok() && capped.is_ok());
        assert!(small.samples.len() < capped.samples.len());
        // The cap kept the huge override finite (identical to an explicit
        // MAX_SAMPLES_PER_TABLE request).
        let mut max_spec = RequestSpec::qa(5);
        max_spec.samples_per_table = MAX_SAMPLES_PER_TABLE;
        let max = daemon.dispatch(GenRequest::generate(3, max_spec, wire_tables()));
        assert_eq!(capped.samples, max.samples);
        daemon.shutdown();
    }

    /// [`wire_tables`] plus a split-eligible table whose paragraph
    /// integrates as a new row, so a response carries whole, split-view and
    /// expanded evidence.
    fn wire_tables_with_paragraph() -> Vec<WireTable> {
        let mut tables = wire_tables();
        tables.push(WireTable {
            title: "Departments".into(),
            rows: vec![
                vec!["department".into(), "total deputies".into(), "budget".into()],
                vec!["Commerce".into(), "18".into(), "500".into()],
                vec!["Defense".into(), "42".into(), "9000".into()],
                vec!["Treasury".into(), "30".into(), "3000".into()],
                vec!["Interior".into(), "25".into(), "1200".into()],
            ],
            paragraph: Some("Energy has a total deputies of 12 and a budget of 700.".into()),
            topic: "politics".into(),
        });
        tables
    }

    fn spawn_daemon(shards: usize) -> (Arc<Daemon>, SocketAddr) {
        let daemon = Arc::new(
            Daemon::start(ServeConfig::with_shards(shards))
                .unwrap_or_else(|e| panic!("daemon start: {e}")),
        );
        let (addr, _accept) =
            daemon.spawn_listener("127.0.0.1:0").unwrap_or_else(|e| panic!("listener: {e}"));
        (daemon, addr)
    }

    /// Records the length of every `write` call.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        for payload in [&b""[..], b"hello", &[7u8; 70_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap_or_else(|e| panic!("write_frame: {e}"));
            assert_eq!(w.writes, vec![4 + payload.len()], "{} payload bytes", payload.len());
        }
    }

    #[test]
    fn sequential_stats_round_trips_do_not_stall() {
        let (daemon, addr) = spawn_daemon(1);
        let mut client = Client::connect(addr).unwrap_or_else(|e| panic!("client connect: {e}"));
        #[expect(
            clippy::disallowed_methods,
            reason = "The test bounds the wall time of sequential round trips; no generated data \
                      depends on it."
        )]
        let started = Instant::now();
        for id in 0..20 {
            let r = client.request(&GenRequest::stats(id)).unwrap_or_else(|e| panic!("stats: {e}"));
            assert!(r.is_ok() && r.stats.is_some(), "stats {id}: {} {}", r.status, r.message);
        }
        let elapsed = started.elapsed();
        // A response held back by Nagle waits ~40 ms for the delayed ACK,
        // so 20 stalled round trips take ~800 ms.
        assert!(elapsed < Duration::from_millis(400), "20 stats round trips took {elapsed:?}");
        daemon.shutdown();
    }

    #[test]
    fn tcp_round_trip_matches_in_process_dispatch() {
        let (daemon, addr) = spawn_daemon(2);
        let mut client = Client::connect(addr).unwrap_or_else(|e| panic!("client connect: {e}"));
        for seed in [21, u64::MAX] {
            for spec in [RequestSpec::qa(seed), RequestSpec::verification(seed)] {
                let task = spec.task.clone();
                let request = GenRequest::generate(5, spec, wire_tables_with_paragraph());
                let expected = daemon.dispatch(request.clone());
                assert!(expected.is_ok(), "{task} seed {seed}: {}", expected.message);
                assert!(
                    expected.samples.iter().any(|s| s.table.omitted_row().is_some()),
                    "{task} seed {seed}: the request must yield split evidence"
                );
                let over_wire =
                    client.request(&request).unwrap_or_else(|e| panic!("wire request: {e}"));
                assert!(
                    over_wire.is_ok(),
                    "wire status: {} {}",
                    over_wire.status,
                    over_wire.message
                );
                assert_eq!(over_wire.samples, expected.samples, "{task} seed {seed}");
                assert_eq!(
                    format!("{:?}", over_wire.samples),
                    format!("{:?}", expected.samples),
                    "{task} seed {seed}"
                );
            }
        }
        let stats =
            client.request(&GenRequest::stats(6)).unwrap_or_else(|e| panic!("stats request: {e}"));
        let snapshot = match stats.stats {
            Some(s) => s,
            None => panic!("stats response must carry a snapshot"),
        };
        assert!(snapshot.requests_completed >= 2);
        assert_eq!(snapshot.shards, 2);
        daemon.shutdown();
    }
}
