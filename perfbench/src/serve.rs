//! Serving workloads: the `uctr-served` daemon, in process.
//!
//! * `serve-wire`: two closed-loop `Client` connections over loopback TCP,
//!   each waiting for its reply before sending the next request — the
//!   shape of a self-training caller.
//! * `serve-queue`: one pacer thread submits through `Daemon::submit` on a
//!   fixed open-loop schedule and one collector thread takes the replies.
//!   Only an arrival schedule builds shard queues, so admission, queue
//!   wait, stealing and head-of-line blocking behind heavy requests work
//!   here and nowhere else.
//!
//! Every response is checked, by `Sample` equality, against an in-process
//! `Daemon::dispatch` reference of the same request taken before timing.

use crate::estimate::{table_cost, time_ns};
use crate::report::Outcome;
use crate::stats::{median, quantile, samples_digest, sorted, tail_quantile};
use crate::trace::{Kind, Trace};
use crate::{alloc, inputs};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use uctr::serve::{
    Client, Daemon, GenRequest, GenResponse, ServeConfig, ServeStats, SubmitError, WireTable,
};
use uctr::{PipelineReport, TemplateBank};

/// Daemon start-up takes under a millisecond, and a shared host's speed
/// can move in bursts of a second or more. So start-up is timed in
/// clusters spread over the run (at its start, after the references,
/// after the timed window, and on `serve-queue` after each segment of the
/// ladder), each repeating it for `SETUP_SPAN` (at least `SETUP_REPS`
/// times); the fastest of all of them is reported.
const SETUP_SPAN: Duration = Duration::from_millis(200);
const SETUP_REPS: usize = 11;

/// Closed-loop connections of `serve-wire`.
const CONNECTIONS: usize = 2;

/// `serve-queue` rates in requests per second: `lo` and `hi` are rungs of
/// the ladder.
pub const LO_RPS: f64 = 100.0;
pub const HI_RPS: f64 = 150.0;

/// The order the rungs run in, each segment with its share of the measured
/// seconds. `lo` runs in three segments spread over the run, so its latency
/// spans the run's changes in host speed rather than one stretch of them.
const SCHEDULE: [(f64, f64); 6] =
    [(LO_RPS, 0.12), (125.0, 0.1), (LO_RPS, 0.12), (HI_RPS, 0.4), (LO_RPS, 0.11), (175.0, 0.15)];

/// A rung counts toward `max_rps` when its light-request p99 stays within
/// this limit and the generator's lag does not grow.
pub const LIMIT_MS: f64 = 25.0;

/// One request in this many is heavy (a 10k × 14 table).
pub const HEAVY_EVERY: usize = 40;

/// Lag growth, first quarter to last quarter of a rung, that marks it as
/// backlogged.
const BACKLOG_MS: f64 = 10.0;

/// How long after its rung a request may still be retried or answered
/// before it counts as unfinished at drain.
const DRAIN: Duration = Duration::from_secs(20);

/// Traced runs arm the allocation counter in alternate slices this long.
const ARM_SLICE: Duration = Duration::from_millis(500);

struct Served {
    daemon: Arc<Daemon>,
    /// Shards, each served by one worker thread.
    shards: usize,
    listener: Option<(SocketAddr, thread::JoinHandle<()>)>,
}

impl Served {
    fn start(listen: bool) -> Served {
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
        let daemon = Arc::new(
            Daemon::start(ServeConfig::with_shards(shards)).expect("the daemon starts in process"),
        );
        let listener = listen.then(|| {
            daemon.spawn_listener("127.0.0.1:0").expect("a loopback port is free to bind")
        });
        Served { daemon, shards, listener }
    }

    /// Stops the workers and the accept loop and waits for both.
    fn stop(self) {
        self.daemon.shutdown();
        if let Some((addr, handle)) = self.listener {
            // The accept loop notices shutdown on its next connection.
            drop(TcpStream::connect(addr));
            let _ = handle.join();
        }
    }
}

/// Starts and stops the daemon repeatedly for `SETUP_SPAN`, adding each
/// start-up time to `secs`; the last start is left running and returned.
fn set_up(listen: bool, secs: &mut Vec<f64>) -> Served {
    let mut served: Option<Served> = None;
    let began = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || began.elapsed() < SETUP_SPAN {
        if let Some(s) = served.take() {
            s.stop();
        }
        let t = Instant::now();
        served = Some(Served::start(listen));
        secs.push(t.elapsed().as_secs_f64());
        reps += 1;
    }
    served.expect("set-up ran at least once")
}

/// The requests of a run and their in-process reference responses.
struct Templates {
    requests: Vec<GenRequest>,
    references: Vec<GenResponse>,
}

fn references(daemon: &Daemon, requests: Vec<GenRequest>, out: &mut Outcome) -> Templates {
    let references: Vec<GenResponse> =
        requests.iter().map(|r| daemon.dispatch(r.clone())).collect();
    // A reference that fails fails its request too, so every timed copy of
    // it will also count as failed.
    out.attempted += references.len() as u64;
    for r in references.iter().filter(|r| !r.is_ok()) {
        out.failed += 1;
        out.notes.push(format!("reference request {}: {} {}", r.id, r.status, r.message));
    }
    let digest = samples_digest(references.iter().flat_map(|r| &r.samples));
    out.notes.push(format!(
        "templates: {} requests; reference digest {} over {} samples (in-process dispatch)",
        requests.len(),
        digest.hex(),
        references.iter().map(|r| r.samples.len()).sum::<usize>(),
    ));
    Templates { requests, references }
}

/// One finished request as the benchmark saw it.
struct Record {
    template: usize,
    heavy: bool,
    /// When the request was due (closed loop: when it was sent).
    start: Instant,
    end: Instant,
    /// Submission time minus due time (open loop only).
    lag: Duration,
    queue_ns: u64,
    service_ns: u64,
    samples: u64,
    armed: bool,
}

impl Record {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Checks a response against its reference; returns a failure note.
fn check(resp: &GenResponse, reference: &GenResponse) -> Option<String> {
    if !resp.is_ok() {
        return Some(format!("request {}: status {} {}", resp.id, resp.status, resp.message));
    }
    (resp.samples != reference.samples)
        .then(|| format!("MISMATCH: request {} differs from its reference", resp.id))
}

/// Flips the allocation counter every `ARM_SLICE` until `stop` is set,
/// returning the allocations counted while armed.
fn toggle_arming(stop: &AtomicBool) -> u64 {
    let mut counted = 0;
    let mut armed = false;
    while !stop.load(Ordering::Relaxed) {
        let before = alloc::allocations();
        alloc::arm(armed);
        thread::sleep(ARM_SLICE);
        alloc::arm(false);
        if armed {
            counted += alloc::allocations() - before;
        }
        armed = !armed;
    }
    counted
}

// ---------------------------------------------------------------------------
// serve-wire
// ---------------------------------------------------------------------------

pub fn run_wire(seed: u64, seconds: u64, traced: bool, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    let served = set_up(true, &mut setup_secs);
    let addr = served.listener.as_ref().expect("serve-wire listens").0;
    let zoo = inputs::ragged(seed, inputs::RAGGED_SCALE);
    let t = references(&served.daemon, inputs::ragged_requests(seed, &zoo), &mut out);
    set_up(true, &mut setup_secs).stop();

    // Warm-up: a few requests per connection, checked but unrecorded.
    drive_wire(addr, &t, Instant::now() + Duration::from_millis(300), &mut out);
    let before = served.daemon.stats();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (records, allocs) = thread::scope(|s| {
        let toggler = traced.then(|| s.spawn(|| toggle_arming(&stop)));
        let records = drive_wire(addr, &t, started + Duration::from_secs(seconds), &mut out);
        stop.store(true, Ordering::Relaxed);
        let allocs = toggler.map_or(0, |h| h.join().expect("the arming thread ends"));
        (records, allocs)
    });
    let after = served.daemon.stats();
    served.stop();
    set_up(true, &mut setup_secs).stop();
    out.set_setup(&setup_secs);

    let elapsed = records.iter().map(|r| r.end).max().unwrap_or(started) - started;
    let samples: u64 = records.iter().map(|r| r.samples).sum();
    let latencies = sorted(records.iter().map(Record::ms).collect());
    out.set("samples_per_s", samples as f64 / elapsed.as_secs_f64());
    out.set("p50_ms", quantile(&latencies, 0.5));
    out.notes.push(format!(
        "timed: {} requests over {CONNECTIONS} connections in {:.2} s; p50 {:.2} ms",
        records.len(),
        elapsed.as_secs_f64(),
        quantile(&latencies, 0.5),
    ));
    if traced {
        let q = tail_quantile(latencies.len(), 0.99);
        out.set("p99_ms", quantile(&latencies, q));
        out.notes.push(format!(
            "p99_ms is the p{:.1} over {} requests",
            q * 100.0,
            latencies.len()
        ));
        let window = common_layers(&mut out, &records, &before, &after, allocs);
        layers(&mut out, trace, &t, &records, &window, true);
    }
    out.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    out
}

/// Runs the closed-loop connections until `until`; every request is
/// checked against its reference.
fn drive_wire(addr: SocketAddr, t: &Templates, until: Instant, out: &mut Outcome) -> Vec<Record> {
    let results: Vec<(Vec<Record>, u64, u64, Vec<String>)> = thread::scope(|s| {
        let handles: Vec<_> =
            (0..CONNECTIONS).map(|c| s.spawn(move || connection(addr, t, c, until))).collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let mut records = Vec::new();
    for (r, attempted, failed, notes) in results {
        records.extend(r);
        out.attempted += attempted;
        out.failed += failed;
        out.notes.extend(notes);
    }
    records
}

fn connection(
    addr: SocketAddr,
    t: &Templates,
    c: usize,
    until: Instant,
) -> (Vec<Record>, u64, u64, Vec<String>) {
    let (mut records, mut attempted, mut failed, mut notes) = (Vec::new(), 0, 0, Vec::new());
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => return (records, 1, 1, vec![format!("connection {c}: {e}")]),
    };
    let mut turn = c;
    while Instant::now() < until {
        let template = turn % t.requests.len();
        turn += CONNECTIONS;
        attempted += 1;
        let armed = alloc::armed();
        let start = Instant::now();
        let mut response = client.request(&t.requests[template]);
        // Backpressure is not a failure: retry after the hint.
        while let Ok(r) = &response {
            if !r.is_rejected() {
                break;
            }
            thread::sleep(Duration::from_millis(r.retry_after_ms.max(1)));
            response = client.request(&t.requests[template]);
        }
        let end = Instant::now();
        match response {
            Ok(resp) => {
                if let Some(note) = check(&resp, &t.references[template]) {
                    failed += 1;
                    notes.push(note);
                    continue;
                }
                records.push(Record {
                    template,
                    heavy: false,
                    start,
                    end,
                    lag: Duration::ZERO,
                    queue_ns: resp.queue_ns,
                    service_ns: resp.service_ns,
                    samples: resp.samples.len() as u64,
                    armed,
                });
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("connection {c}: {e}"));
                break;
            }
        }
    }
    (records, attempted, failed, notes)
}

// ---------------------------------------------------------------------------
// serve-queue
// ---------------------------------------------------------------------------

/// What one rung of the ladder, or one segment of it, measured.
struct Rung {
    rate: f64,
    secs: f64,
    /// The scheduled end of the last segment's arrivals.
    end: Instant,
    records: Vec<Record>,
    failed: u64,
    /// Why requests failed, one line each.
    notes: Vec<String>,
    backlog: bool,
}

impl Rung {
    /// Light-request latency at quantile `q`; a tail quantile backs off
    /// until ten observations lie beyond it.
    fn light_ms(&self, q: f64) -> f64 {
        let ms = sorted(self.records.iter().filter(|r| !r.heavy).map(Record::ms).collect());
        quantile(&ms, if q > 0.5 { tail_quantile(ms.len(), q) } else { q })
    }

    /// Folds a later segment of the same rate into this rung.
    fn extend(&mut self, later: Rung) {
        self.secs += later.secs;
        self.end = later.end;
        self.records.extend(later.records);
        self.failed += later.failed;
        self.notes.extend(later.notes);
        self.backlog |= later.backlog;
    }
}

pub fn run_queue(seed: u64, seconds: u64, traced: bool, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    let served = set_up(false, &mut setup_secs);
    let shards = served.shards;
    let daemon = &served.daemon;
    let zoo = inputs::ragged(seed, inputs::RAGGED_SCALE);
    let heavy_table = inputs::heavy(seed);
    let mut requests = inputs::ragged_requests(seed, &zoo);
    let light = requests.len();
    requests.extend((0..2).map(|i| inputs::heavy_request(seed, light + i, &heavy_table)));
    let t = references(daemon, requests, &mut out);
    set_up(false, &mut setup_secs).stop();
    out.notes.push(format!(
        "heavy references: service {:?} ms, {:?} samples",
        t.references[light..].iter().map(|r| ms(r.service_ns)).collect::<Vec<_>>(),
        t.references[light..].iter().map(|r| r.samples.len()).collect::<Vec<_>>(),
    ));

    let mut cursor = 0usize;
    // Warm-up at `lo`, checked but unrecorded.
    let warm = rung(daemon, &t, light, LO_RPS, 0.5, &mut cursor);
    out.attempted += warm.records.len() as u64 + warm.failed;
    out.failed += warm.failed;
    out.notes.extend(warm.notes);

    let mut rungs: Vec<Rung> = Vec::new();
    let (mut before, mut after) = (None, None);
    let mut allocs = 0;
    for (rate, share) in SCHEDULE {
        let secs = seconds as f64 * share;
        let at_hi = rate == HI_RPS;
        if at_hi {
            before = Some(daemon.stats());
        }
        let stop = AtomicBool::new(false);
        let r = thread::scope(|s| {
            let toggler = (traced && at_hi).then(|| s.spawn(|| toggle_arming(&stop)));
            let r = rung(daemon, &t, light, rate, secs, &mut cursor);
            stop.store(true, Ordering::Relaxed);
            if let Some(h) = toggler {
                allocs = h.join().expect("the arming thread ends");
            }
            r
        });
        if at_hi {
            after = Some(daemon.stats());
        }
        out.attempted += r.records.len() as u64 + r.failed;
        out.failed += r.failed;
        out.notes.extend(r.notes.iter().cloned());
        out.notes.push(format!(
            "rung {:>5.0} req/s for {:.2} s: {} requests, light p50 {:.2} ms, p99 {:.2} ms, \
             lag p99 {:.2} ms{}",
            r.rate,
            r.secs,
            r.records.len(),
            r.light_ms(0.5),
            r.light_ms(0.99),
            quantile(&sorted(r.records.iter().map(|x| x.lag.as_secs_f64() * 1e3).collect()), 0.99),
            if r.backlog { ", BACKLOG" } else { "" },
        ));
        match rungs.iter_mut().find(|rung| rung.rate == r.rate) {
            Some(rung) => rung.extend(r),
            None => rungs.push(r),
        }
        set_up(false, &mut setup_secs).stop();
    }
    served.stop();
    out.set_setup(&setup_secs);
    rungs.sort_by(|a, b| a.rate.total_cmp(&b.rate));

    let hi = rungs.iter().find(|r| r.rate == HI_RPS).expect("hi is a rung");
    let lo = rungs.iter().find(|r| r.rate == LO_RPS).expect("lo is a rung");
    // An open loop finishes what the schedule offers while the daemon keeps
    // up, so its delivery rate measures the schedule. The daemon's own rate
    // is samples per second of worker time: every rung's samples over the
    // service time they took, spread over the shards' workers.
    let all = || rungs.iter().flat_map(|r| &r.records);
    let samples: u64 = all().map(|r| r.samples).sum();
    let service_s = all().map(|r| r.service_ns as f64).sum::<f64>() / 1e9;
    let capacity = samples as f64 * shards as f64 / service_s;
    out.set("samples_per_s", capacity);
    let hi_samples: u64 = hi.records.iter().filter(|r| r.end <= hi.end).map(|r| r.samples).sum();
    out.notes.push(format!(
        "samples/s: {capacity:.0} per second of worker time; {:.0} offered and finished \
         inside the hi window",
        hi_samples as f64 / hi.secs,
    ));
    // At hi the median moves with how often both workers hold a heavy
    // request, which host noise alone can double; lo keeps the end-to-end
    // median a measure of light-request service under co-tenant load.
    out.set("p50_ms", lo.light_ms(0.5));
    if traced {
        out.set("p99_ms", hi.light_ms(0.99));
        out.set("lo.p50_ms", lo.light_ms(0.5));
        out.set("lo.p99_ms", lo.light_ms(0.99));
        out.set("hi.p50_ms", hi.light_ms(0.5));
        out.set("hi.p99_ms", hi.light_ms(0.99));
        let heavy = sorted(hi.records.iter().filter(|r| r.heavy).map(Record::ms).collect());
        out.set("heavy.p50_ms", quantile(&heavy, 0.5));
        // The ladder climbs until the first rung that misses; a noisy pass
        // above a miss does not count.
        let max_rps = rungs
            .iter()
            .take_while(|r| r.light_ms(0.99) <= LIMIT_MS && !r.backlog && r.failed == 0)
            .map(|r| r.rate)
            .fold(0.0, f64::max);
        out.set("max_rps", max_rps);
        let lags = sorted(hi.records.iter().map(|r| r.lag.as_secs_f64() * 1e3).collect());
        out.set("loadgen.lag_ms_p99", quantile(&lags, tail_quantile(lags.len(), 0.99)));
        let (before, after) = (before.expect("stats before hi"), after.expect("stats after hi"));
        let window = common_layers(&mut out, &hi.records, &before, &after, allocs);
        layers(&mut out, trace, &t, &hi.records, &window, false);
    }
    out.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    out
}

/// A request waiting for its (re)submission.
struct Pending {
    k: usize,
    template: usize,
    due: Instant,
    request: GenRequest,
}

/// A submitted request on its way to the collector.
struct Sent {
    template: usize,
    heavy: bool,
    scheduled: Instant,
    submitted: Instant,
    armed: bool,
    reply: mpsc::Receiver<GenResponse>,
}

/// Runs one rung: `rate × secs` arrivals on a fixed schedule, request `k`
/// heavy when `k % HEAVY_EVERY == HEAVY_EVERY - 1`. Latency runs from the
/// scheduled arrival to the end of service as the daemon reports it
/// (submission + `queue_ns` + `service_ns`), so a late collector never
/// inflates it.
fn rung(
    daemon: &Daemon,
    t: &Templates,
    light: usize,
    rate: f64,
    secs: f64,
    cursor: &mut usize,
) -> Rung {
    let n = (rate * secs).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(2);
    let give_up = start + interval * n as u32 + DRAIN;
    let mut failed = 0u64;
    let collected = thread::scope(|s| {
        let collector = s.spawn(move || collect(rx, t, give_up));
        // Requests due for submission, earliest first; a rejected one
        // comes back after its `retry_after_ms`.
        let mut due: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
        let mut waiting: Vec<Option<Pending>> = Vec::with_capacity(n);
        let mut next = 0usize;
        let heavy = |k: usize| {
            (k % HEAVY_EVERY == HEAVY_EVERY - 1)
                .then(|| light + (k / HEAVY_EVERY) % (t.requests.len() - light))
        };
        // Copying a heavy request takes longer than the gap between
        // arrivals, so a helper thread copies each one ahead of its turn.
        // Copies are the benchmark's work, so they are never counted as
        // the daemon's allocations.
        let copy = |template: usize| alloc::uncounted(|| t.requests[template].clone());
        let (heavy_tx, heavy_rx) = mpsc::sync_channel::<GenRequest>(2);
        s.spawn(move || {
            for template in (0..n).filter_map(heavy) {
                if heavy_tx.send(copy(template)).is_err() {
                    return;
                }
            }
        });
        let make = |k: usize, cursor: &mut usize| -> (usize, GenRequest) {
            if let Some(template) = heavy(k) {
                return (template, heavy_rx.recv().unwrap_or_else(|_| copy(template)));
            }
            *cursor = (*cursor + 1) % light;
            (*cursor, copy(*cursor))
        };
        loop {
            let arrival = (next < n).then(|| start + interval * next as u32);
            let retry = due.peek().map(|Reverse((at, _))| *at);
            let (at, k) = match (arrival, retry) {
                (Some(a), Some(r)) if r < a => (r, due.pop().map(|Reverse((_, k))| k)),
                (Some(a), _) => (a, None),
                (None, Some(r)) => (r, due.pop().map(|Reverse((_, k))| k)),
                (None, None) => break,
            };
            let mut pending = match k {
                Some(k) => waiting[k].take().expect("a retried request is pending"),
                None => {
                    let (template, request) = make(next, cursor);
                    waiting.push(None);
                    next += 1;
                    Pending { k: next - 1, template, due: at, request }
                }
            };
            if at > give_up {
                failed += 1;
                continue;
            }
            let now = Instant::now();
            if at > now {
                thread::sleep(at - now);
            }
            let placeholder = alloc::uncounted(|| GenRequest::stats(0));
            let request = std::mem::replace(&mut pending.request, placeholder);
            let submitted = Instant::now();
            match daemon.submit(request) {
                Ok(reply) => {
                    let sent = Sent {
                        template: pending.template,
                        heavy: pending.template >= light,
                        scheduled: pending.due,
                        submitted,
                        armed: alloc::armed(),
                        reply,
                    };
                    if tx.send(sent).is_err() {
                        failed += 1;
                    }
                }
                Err(SubmitError::Rejected { retry_after_ms }) => {
                    // Submission consumed the request: re-clone it now, off
                    // the schedule's critical path.
                    pending.request = copy(pending.template);
                    let k = pending.k;
                    due.push(Reverse((
                        submitted + Duration::from_millis(retry_after_ms.max(1)),
                        k,
                    )));
                    waiting[k] = Some(pending);
                }
                Err(SubmitError::Invalid(_)) => failed += 1,
            }
        }
        drop(tx);
        collector.join().expect("the collector thread panicked")
    });
    let (records, notes) = collected;
    failed += notes.len() as u64;
    let lags: Vec<f64> = records.iter().map(|r| r.lag.as_secs_f64() * 1e3).collect();
    let quarter = lags.len() / 4;
    let backlog = quarter > 0
        && median(&lags[lags.len() - quarter..]) > median(&lags[..quarter]) + BACKLOG_MS;
    Rung { rate, secs, end: start + Duration::from_secs_f64(secs), records, failed, notes, backlog }
}

/// Takes every reply in submission order and checks it.
fn collect(
    rx: mpsc::Receiver<Sent>,
    t: &Templates,
    give_up: Instant,
) -> (Vec<Record>, Vec<String>) {
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for sent in rx {
        let wait = give_up.saturating_duration_since(Instant::now());
        let Ok(resp) = sent.reply.recv_timeout(wait) else {
            failures.push(format!("template {}: unfinished at drain", sent.template));
            continue;
        };
        if let Some(note) = check(&resp, &t.references[sent.template]) {
            failures.push(note);
            continue;
        }
        let end =
            sent.submitted + Duration::from_nanos(resp.queue_ns.saturating_add(resp.service_ns));
        records.push(Record {
            template: sent.template,
            heavy: sent.heavy,
            start: sent.scheduled,
            end,
            lag: sent.submitted.saturating_duration_since(sent.scheduled),
            queue_ns: resp.queue_ns,
            service_ns: resp.service_ns,
            samples: resp.samples.len() as u64,
            armed: sent.armed,
        });
    }
    (records, failures)
}

// ---------------------------------------------------------------------------
// Per-layer tables
// ---------------------------------------------------------------------------

/// Counter deltas of a window, from `ServeStats` before and after it.
fn delta(after: &PipelineReport, before: &PipelineReport, timer: &str) -> (f64, u64) {
    let get = |r: &PipelineReport| r.timing(timer).map_or((0, 0), |t| (t.total_ns, t.count));
    let (a, b) = (get(after), get(before));
    ((a.0 - b.0) as f64, a.1 - b.1)
}

fn split_accepted(r: &PipelineReport) -> u64 {
    r.sources.iter().find(|s| s.source == "table_split").map_or(0, |s| s.accepted)
}

/// What the daemon's counters say about a window, for the unattributed
/// share: time in its reported timers, and how many splits ran.
struct Window {
    pipeline_ns: f64,
    split_calls: u64,
}

/// Layers both serving workloads share: queue and service from the
/// responses, and the daemon's own counters over the window.
fn common_layers(
    out: &mut Outcome,
    records: &[Record],
    before: &ServeStats,
    after: &ServeStats,
    allocs: u64,
) -> Window {
    let queue = sorted(records.iter().map(|r| ms(r.queue_ns)).collect());
    let service = sorted(records.iter().map(|r| ms(r.service_ns)).collect());
    let q = tail_quantile(records.len(), 0.99);
    out.set("serve.queue_wait_ms.p50", quantile(&queue, 0.5));
    out.set("serve.queue_wait_ms.p99", quantile(&queue, q));
    out.set("serve.service_ms.p50", quantile(&service, 0.5));
    out.set("serve.service_ms.p99", quantile(&service, q));
    let rejected = after.requests_rejected - before.requests_rejected;
    let admitted = after.requests_admitted - before.requests_admitted;
    out.set("serve.rejected", rejected as f64);
    out.set("serve.reject_ratio", rejected as f64 / (rejected + admitted).max(1) as f64);
    out.set("serve.stolen", (after.requests_stolen - before.requests_stolen) as f64);
    let hits = after.pool_hits - before.pool_hits;
    let misses = after.pool_misses - before.pool_misses;
    out.set("serve.pool_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);

    let (a, b) = (&after.report, &before.report);
    let requests = records.len().max(1) as f64;
    let mut pipeline_ns = 0.0;
    for (timer, us, calls) in [
        ("instantiate", "program.instantiate_us", "program.instantiate_calls"),
        ("execute", "program.execute_us", "program.execute_calls"),
        ("nl_gen", "nlgen.verbalize_us", "nlgen.verbalize_calls"),
    ] {
        let (ns, n) = delta(a, b, timer);
        pipeline_ns += ns;
        out.set(us, ns / n.max(1) as f64 / 1e3);
        out.set(calls, n as f64 / requests);
    }
    let attempts = a.attempted() - b.attempted();
    let accepted = a.accepted() - b.accepted();
    let kind_attempts = |r: &PipelineReport| r.kinds.iter().map(|k| k.attempted).sum::<u64>();
    out.set("pipeline.attempts", attempts as f64 / requests);
    out.set("pipeline.accepted", accepted as f64 / requests);
    out.set("pipeline.accept_ratio", accepted as f64 / attempts.max(1) as f64);
    out.set(
        "pipeline.prefilter_ratio",
        (a.prefiltered() - b.prefiltered()) as f64
            / (kind_attempts(a) - kind_attempts(b)).max(1) as f64,
    );
    let armed_samples: u64 = records.iter().filter(|r| r.armed).map(|r| r.samples).sum();
    out.set("pipeline.allocs_per_sample", allocs as f64 / armed_samples.max(1) as f64);
    // Counting runs in the workers, so compare light service times of
    // requests sent in armed and unarmed slices; client latency would bury
    // the difference under transport and queueing.
    let service_p50 = |armed: bool| {
        let ms: Vec<f64> = records
            .iter()
            .filter(|r| r.armed == armed && !r.heavy)
            .map(|r| ms(r.service_ns))
            .collect();
        median(&ms)
    };
    out.set("trace.overhead", service_p50(true) / service_p50(false) - 1.0);
    Window { pipeline_ns, split_calls: split_accepted(a) - split_accepted(b) }
}

/// Per-request costs of the layers the daemon does not report, measured on
/// the request's own bytes.
#[derive(Default)]
struct Cost {
    typing_ns: f64,
    ctx_ns: f64,
    expand_ns: f64,
    expand_calls: u64,
    split_ns: Vec<f64>,
    req_bytes: usize,
    resp_bytes: usize,
    req_encode_ns: f64,
    req_decode_ns: f64,
    resp_encode_ns: f64,
    resp_decode_ns: f64,
}

fn cost(bank: &TemplateBank, request: &GenRequest, reference: &GenResponse, wire: bool) -> Cost {
    let mut c = Cost::default();
    for table in &request.tables {
        c.typing_ns += time_ns(3, || WireTable::to_input(table));
        let Some(t) = table.to_input().ok().and_then(|input| table_cost(bank, &input)) else {
            continue;
        };
        c.ctx_ns += t.ctx_ns;
        if let Some(ns) = t.expand_ns {
            c.expand_ns += ns;
            c.expand_calls += 1;
        }
        c.split_ns.extend(t.split_ns);
    }
    if wire {
        let req = serde_json::to_string(request).unwrap_or_default();
        let resp = serde_json::to_string(reference).unwrap_or_default();
        c.req_bytes = req.len();
        c.resp_bytes = resp.len();
        c.req_encode_ns = time_ns(3, || serde_json::to_string(request));
        c.req_decode_ns = time_ns(3, || serde_json::from_str::<GenRequest>(&req));
        c.resp_encode_ns = time_ns(3, || serde_json::to_string(reference));
        c.resp_decode_ns = time_ns(3, || serde_json::from_str::<GenResponse>(&resp));
    }
    c
}

/// Per-request spans: the round trip (or scheduled-to-done interval) with
/// queue wait and service as reported children, the estimated layers under
/// service, and, on the wire, the four serde terms. The request's self time
/// is transport (wire) or generator lag (queue).
fn request_spans(trace: &mut Trace, records: &[Record], costs: &[Cost], wire: bool) -> Vec<usize> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let c = &costs[r.template];
            let root = trace.measured("serve.request", i as u64, None, (r.start, r.end), 1);
            trace.derived(root, "serve.queue_wait", r.queue_ns, Kind::Reported);
            let service = trace.derived(root, "serve.service", r.service_ns, Kind::Reported);
            trace.derived(service, "tabular.typing", c.typing_ns as u64, Kind::Estimate);
            trace.derived(service, "tabular.ctx_build", c.ctx_ns as u64, Kind::Estimate);
            trace.derived(service, "textops.expand", c.expand_ns as u64, Kind::Estimate);
            if wire {
                for (name, ns) in [
                    ("wire.req_encode", c.req_encode_ns),
                    ("wire.req_decode", c.req_decode_ns),
                    ("wire.resp_encode", c.resp_encode_ns),
                    ("wire.resp_decode", c.resp_decode_ns),
                ] {
                    trace.derived(root, name, ns as u64, Kind::Estimate);
                }
            }
            root
        })
        .collect()
}

/// Layers the daemon does not report, per request, plus the unattributed
/// share of service time.
fn estimated_layers(out: &mut Outcome, records: &[Record], costs: &[Cost], window: &Window) {
    let n = records.len().max(1) as f64;
    let per = |f: &dyn Fn(&Cost) -> f64| records.iter().map(|r| f(&costs[r.template])).sum::<f64>();
    let service: f64 = records.iter().map(|r| r.service_ns as f64).sum();
    let ctx = per(&|c| c.ctx_ns);
    let typing = per(&|c| c.typing_ns);
    let expand = per(&|c| c.expand_ns);
    let expand_calls = per(&|c| c.expand_calls as f64);
    let split: Vec<f64> = costs.iter().flat_map(|c| c.split_ns.iter().copied()).collect();
    let split_us = split.iter().sum::<f64>() / split.len().max(1) as f64 / 1e3;
    out.set("tabular.ctx_build_ms", ctx / n / 1e6);
    out.set("tabular.ctx_build_share", ctx / service.max(1.0));
    out.set("tabular.typing_ms", typing / n / 1e6);
    out.set("textops.expand_us", expand / expand_calls.max(1.0) / 1e3);
    out.set("textops.split_us", split_us);
    let split_ns = split_us * 1e3 * window.split_calls as f64;
    let unattributed = service - typing - ctx - expand - window.pipeline_ns - split_ns;
    out.set("pipeline.unattributed_share", unattributed / service.max(1.0));
}

/// The per-layer table of a serving window; on the wire also the frame
/// sizes, the serde terms, and transport as each request's self time.
fn layers(
    out: &mut Outcome,
    trace: &mut Trace,
    t: &Templates,
    records: &[Record],
    window: &Window,
    wire: bool,
) {
    let bank = TemplateBank::builtin();
    let costs: Vec<Cost> =
        t.requests.iter().zip(&t.references).map(|(q, r)| cost(&bank, q, r, wire)).collect();
    let roots = request_spans(trace, records, &costs, wire);
    estimated_layers(out, records, &costs, window);
    if !wire {
        return;
    }
    let n = records.len().max(1) as f64;
    let per =
        |f: &dyn Fn(&Cost) -> f64| records.iter().map(|r| f(&costs[r.template])).sum::<f64>() / n;
    out.set("wire.req_bytes", per(&|c| c.req_bytes as f64));
    let samples: u64 = records.iter().map(|r| r.samples).sum();
    let resp_bytes: f64 = records.iter().map(|r| costs[r.template].resp_bytes as f64).sum();
    out.set("wire.resp_bytes_per_sample", resp_bytes / samples.max(1) as f64);
    out.set("wire.req_encode_ms", per(&|c| c.req_encode_ns) / 1e6);
    out.set("wire.req_decode_ms", per(&|c| c.req_decode_ns) / 1e6);
    out.set("wire.resp_encode_ms", per(&|c| c.resp_encode_ns) / 1e6);
    out.set("wire.resp_decode_ms", per(&|c| c.resp_decode_ns) / 1e6);
    let selfs = trace.self_ns();
    let transport: Vec<f64> = roots.iter().map(|&i| ms(selfs[i])).collect();
    out.set("wire.transport_ms", median(&transport));
}
