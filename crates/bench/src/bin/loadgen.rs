//! Serving load generator: drives a `uctr-served` daemon and measures
//! tail latency and sustained throughput.
//!
//! Two modes:
//!
//! * **closed** (default): `--conns` connections, each firing its next
//!   request the moment the previous response lands. Measures the
//!   daemon's sustained capacity at a fixed concurrency level.
//! * **open**: requests arrive on a fixed schedule (`--rate` per second)
//!   regardless of completions, and latency is measured from the
//!   *scheduled* arrival — so a daemon that falls behind accrues queueing
//!   delay instead of silently slowing the clock down
//!   (coordinated-omission-free).
//!
//! After the window, one `stats` request fetches the daemon's queue-wait
//! and service histograms; their p50/p99 print beside client latency, so
//! the wire's share of a round trip shows without a profiler.
//!
//! Flags:
//!   --addr HOST:PORT     drive a running daemon (default: spawn one
//!                        in-process on a loopback port)
//!   --shards N           in-process daemon worker count (default: all cores)
//!   --mode closed|open   (default closed)
//!   --conns N            concurrent connections (default 4)
//!   --rate R             open-loop arrivals/sec (default 200)
//!   --duration-ms MS     measured window (default 2000)
//!   --warmup-ms MS       untimed lead-in (default 300)
//!   --task qa|verification  request task (default qa)
//!   --tables N           zoo tables per request (default 2)
//!   --seed S             base request seed (default 0xC11E)
//!   --merge-json PATH    insert the results as the `serving` section of an
//!                        existing BENCH JSON file (read-modify-write)
//!   --json PATH          also write the section as a standalone JSON file
//!   --check-floor PATH   one-sided serving gate: fail on throughput
//!                        regression or p99 blowup vs the recorded baselines
//!   --md                 print a markdown latency table (CI step summary)

// Reporting binary: stdout lines are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{flag_value, zoo, AcceptanceFloor};
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use uctr::serve::{Client, Daemon, GenRequest, RequestSpec, ServeConfig, WireTable};

/// One worker's tally over the recorded window.
#[derive(Default)]
struct Tally {
    latencies_ns: Vec<u64>,
    requests: u64,
    rejections: u64,
    samples: u64,
    errors: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.latencies_ns.extend(other.latencies_ns);
        self.requests += other.requests;
        self.rejections += other.rejections;
        self.samples += other.samples;
        self.errors += other.errors;
    }
}

/// Exact quantile over a sorted latency vector (nearest-rank).
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The rotating request templates every worker draws from: distinct seeds
/// and table batches so concurrent traffic is heterogeneous, like a fleet
/// of self-training clients would be.
fn request_templates(task: &str, tables_per_request: usize, base_seed: u64) -> Vec<GenRequest> {
    let inputs = zoo::ragged_zoo(1);
    let wire: Vec<WireTable> = inputs.iter().map(WireTable::from_input).collect();
    let per = tables_per_request.max(1);
    (0..8)
        .map(|i| {
            let batch: Vec<WireTable> =
                (0..per).map(|j| wire[(i * per + j) % wire.len()].clone()).collect();
            let spec = match task {
                "verification" => RequestSpec::verification(base_seed + i as u64),
                _ => RequestSpec::qa(base_seed + i as u64),
            };
            GenRequest::generate(0, spec, batch)
        })
        .collect()
}

/// Sends one request, retrying through backpressure rejections until it
/// completes. Returns `(latency_from(started), samples, rejections)` or
/// `None` on a connection/protocol error.
fn drive_one(
    client: &mut Client,
    request: &GenRequest,
    started: Instant,
) -> Option<(u64, u64, u64)> {
    let mut rejections = 0u64;
    loop {
        match client.request(request) {
            Ok(resp) if resp.is_rejected() => {
                rejections += 1;
                thread::sleep(Duration::from_millis(resp.retry_after_ms.max(1)));
            }
            Ok(resp) if resp.is_ok() => {
                let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                return Some((ns, resp.samples.len() as u64, rejections));
            }
            Ok(_) | Err(_) => return None,
        }
    }
}

fn closed_loop(
    addr: &str,
    conns: usize,
    templates: &[GenRequest],
    record_from: Instant,
    deadline: Instant,
) -> Tally {
    let next_id = AtomicU64::new(1);
    let mut total = Tally::default();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|worker| {
                let next_id = &next_id;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        tally.errors += 1;
                        return tally;
                    };
                    let mut turn = worker;
                    loop {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "Load-generator client: wall-clock timing (arrival pacing and \
                                      end-to-end latency) is the measurement itself and never \
                                      feeds generated data, so corpus determinism is unaffected."
                        )]
                        let started = Instant::now();
                        if started >= deadline {
                            return tally;
                        }
                        let mut request = templates[turn % templates.len()].clone();
                        request.id = next_id.fetch_add(1, Ordering::Relaxed);
                        turn += 1;
                        match drive_one(&mut client, &request, started) {
                            Some((ns, samples, rejections)) => {
                                if started >= record_from {
                                    tally.requests += 1;
                                    tally.samples += samples;
                                    tally.rejections += rejections;
                                    tally.latencies_ns.push(ns);
                                }
                            }
                            None => {
                                tally.errors += 1;
                                return tally;
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().unwrap());
        }
    });
    total
}

fn open_loop(
    addr: &str,
    conns: usize,
    rate: f64,
    templates: &[GenRequest],
    record_from: Instant,
    deadline: Instant,
) -> Tally {
    let interval = Duration::from_secs_f64(1.0 / rate.max(1.0));
    let (tx, rx) = mpsc::channel::<Instant>();
    let rx = Arc::new(Mutex::new(rx));
    let next_id = AtomicU64::new(1);
    let mut total = Tally::default();
    thread::scope(|scope| {
        // Pacer: emits scheduled arrival instants on a fixed cadence. The
        // schedule never waits for completions — that is what makes the
        // measurement open-loop.
        scope.spawn(move || {
            #[expect(
                clippy::disallowed_methods,
                reason = "Load-generator client: wall-clock timing (arrival pacing and end-to-end \
                          latency) is the measurement itself and never feeds generated data, so \
                          corpus determinism is unaffected."
            )]
            let mut next = Instant::now();
            while next < deadline {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "Load-generator client: wall-clock timing (arrival pacing and \
                              end-to-end latency) is the measurement itself and never feeds \
                              generated data, so corpus determinism is unaffected."
                )]
                let now = Instant::now();
                if next > now {
                    thread::sleep(next - now);
                }
                if tx.send(next).is_err() {
                    return;
                }
                next += interval;
            }
        });
        let handles: Vec<_> = (0..conns)
            .map(|worker| {
                let rx = Arc::clone(&rx);
                let next_id = &next_id;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        tally.errors += 1;
                        return tally;
                    };
                    let mut turn = worker;
                    loop {
                        // Take the next scheduled arrival; latency counts
                        // from the *schedule*, so time spent waiting here
                        // (all workers busy) is part of the tail.
                        let scheduled = match rx.lock().unwrap().recv() {
                            Ok(at) => at,
                            Err(_) => return tally,
                        };
                        let mut request = templates[turn % templates.len()].clone();
                        request.id = next_id.fetch_add(1, Ordering::Relaxed);
                        turn += 1;
                        match drive_one(&mut client, &request, scheduled) {
                            Some((ns, samples, rejections)) => {
                                if scheduled >= record_from {
                                    tally.requests += 1;
                                    tally.samples += samples;
                                    tally.rejections += rejections;
                                    tally.latencies_ns.push(ns);
                                }
                            }
                            None => {
                                tally.errors += 1;
                                return tally;
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().unwrap());
        }
    });
    total
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse_usize = |name: &str, default: usize| -> usize {
        flag_value(&args, name).map(|v| v.parse().expect("numeric flag")).unwrap_or(default)
    };
    let parse_u64 = |name: &str, default: u64| -> u64 {
        flag_value(&args, name).map(|v| v.parse().expect("numeric flag")).unwrap_or(default)
    };
    let mode = flag_value(&args, "--mode").unwrap_or_else(|| "closed".into());
    let conns = parse_usize("--conns", 4);
    let rate =
        flag_value(&args, "--rate").map(|v| v.parse().expect("numeric flag")).unwrap_or(200.0);
    let duration_ms = parse_u64("--duration-ms", 2000);
    let warmup_ms = parse_u64("--warmup-ms", 300);
    let task = flag_value(&args, "--task").unwrap_or_else(|| "qa".into());
    let tables_per_request = parse_usize("--tables", 2);
    let base_seed = parse_u64("--seed", 0xC11E);
    let shards =
        parse_usize("--shards", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2));

    // Either drive a remote daemon or spawn one in-process on a loopback
    // port (same code path the CI smoke test launches as a separate bin).
    let (addr, local_daemon) = match flag_value(&args, "--addr") {
        Some(addr) => (addr, None),
        None => {
            let daemon =
                Arc::new(Daemon::start(ServeConfig::with_shards(shards)).expect("daemon start"));
            let (bound, _accept) = daemon.spawn_listener("127.0.0.1:0").expect("bind loopback");
            (bound.to_string(), Some(daemon))
        }
    };

    let templates = request_templates(&task, tables_per_request, base_seed);
    #[expect(
        clippy::disallowed_methods,
        reason = "Load-generator client: wall-clock timing (arrival pacing and end-to-end latency) \
                  is the measurement itself and never feeds generated data, so corpus determinism \
                  is unaffected."
    )]
    let started = Instant::now();
    let record_from = started + Duration::from_millis(warmup_ms);
    let deadline = record_from + Duration::from_millis(duration_ms);
    let mut tally = match mode.as_str() {
        "closed" => closed_loop(&addr, conns, &templates, record_from, deadline),
        "open" => open_loop(&addr, conns, rate, &templates, record_from, deadline),
        other => {
            eprintln!("loadgen: unknown --mode `{other}` (expected closed|open)");
            std::process::exit(2);
        }
    };
    let measured_secs = (duration_ms as f64 / 1e3).max(1e-9);
    if tally.requests == 0 {
        eprintln!(
            "loadgen: no requests completed in the measured window ({} errors)",
            tally.errors
        );
        std::process::exit(1);
    }

    tally.latencies_ns.sort_unstable();
    let p50 = quantile_ns(&tally.latencies_ns, 0.50);
    let p99 = quantile_ns(&tally.latencies_ns, 0.99);
    let p999 = quantile_ns(&tally.latencies_ns, 0.999);
    let max = *tally.latencies_ns.last().unwrap();
    let samples_per_sec = tally.samples as f64 / measured_secs;
    let requests_per_sec = tally.requests as f64 / measured_secs;

    // Daemon-side counters over one extra connection (pool behaviour is
    // invisible to a pure client).
    let daemon_stats = Client::connect(&addr)
        .ok()
        .and_then(|mut c| c.request(&GenRequest::stats(0)).ok())
        .and_then(|resp| resp.stats);
    // The daemon's queue-wait and service histograms (whole run, warm-up
    // included) as (p50, p99) in ms; the rest of client latency is the
    // wire and the client.
    let daemon_split = |name: &str| {
        let t = daemon_stats.as_ref()?.report.timing(name)?;
        Some((ms(t.quantile_ns(0.50)), ms(t.quantile_ns(0.99))))
    };
    let queue_wait = daemon_split("queue_wait");
    let service = daemon_split("service");

    let loop_desc = if mode == "open" {
        format!("open-loop {rate:.0}/sec arrivals, {conns} conns")
    } else {
        format!("closed-loop, {conns} conns")
    };
    println!(
        "serving throughput: {samples_per_sec:.0} samples/sec ({requests_per_sec:.0} requests/sec) \
         over {duration_ms}ms {loop_desc}"
    );
    println!(
        "serving latency: p50 {:.2}ms · p99 {:.2}ms · p999 {:.2}ms (max {:.2}ms, {} requests, \
         {} rejections, {} errors)",
        ms(p50),
        ms(p99),
        ms(p999),
        ms(max),
        tally.requests,
        tally.rejections,
        tally.errors,
    );
    if let Some(stats) = &daemon_stats {
        println!(
            "serving daemon: {} shards, pool {}/{} warm hits, {} completed",
            stats.shards,
            stats.pool_hits,
            stats.pool_hits + stats.pool_misses,
            stats.requests_completed,
        );
    }
    if let (Some((q50, q99)), Some((s50, s99))) = (queue_wait, service) {
        println!(
            "serving daemon-side: queue wait p50 {q50:.2}ms · p99 {q99:.2}ms; service p50 \
             {s50:.2}ms · p99 {s99:.2}ms"
        );
    }
    if args.iter().any(|a| a == "--md") {
        println!("| metric | value |");
        println!("|---|---|");
        println!("| mode | {loop_desc} |");
        println!("| sustained samples/sec | {samples_per_sec:.0} |");
        println!("| requests/sec | {requests_per_sec:.0} |");
        println!("| p50 | {:.2} ms |", ms(p50));
        println!("| p99 | {:.2} ms |", ms(p99));
        println!("| p999 | {:.2} ms |", ms(p999));
        println!("| max | {:.2} ms |", ms(max));
        if let (Some((q50, q99)), Some((s50, s99))) = (queue_wait, service) {
            println!("| daemon queue wait p50 / p99 | {q50:.2} / {q99:.2} ms |");
            println!("| daemon service p50 / p99 | {s50:.2} / {s99:.2} ms |");
        }
        println!("| rejections | {} |", tally.rejections);
    }

    let mut serving = vec![
        ("mode".into(), Value::Str(mode.clone())),
        ("conns".into(), Value::Int(conns as i64)),
        ("shards".into(), Value::Int(shards as i64)),
        ("task".into(), Value::Str(task.clone())),
        ("tables_per_request".into(), Value::Int(tables_per_request as i64)),
        ("duration_ms".into(), Value::Int(duration_ms as i64)),
        ("requests".into(), Value::Int(tally.requests as i64)),
        ("rejections".into(), Value::Int(tally.rejections as i64)),
        ("errors".into(), Value::Int(tally.errors as i64)),
        ("samples".into(), Value::Int(tally.samples as i64)),
        ("samples_per_sec".into(), Value::Float(samples_per_sec)),
        ("requests_per_sec".into(), Value::Float(requests_per_sec)),
        ("p50_ms".into(), Value::Float(ms(p50))),
        ("p99_ms".into(), Value::Float(ms(p99))),
        ("p999_ms".into(), Value::Float(ms(p999))),
        ("max_ms".into(), Value::Float(ms(max))),
    ];
    if mode == "open" {
        serving.insert(1, ("arrival_rate_per_sec".into(), Value::Float(rate)));
    }
    if let Some(stats) = &daemon_stats {
        serving.push((
            "daemon".into(),
            Value::Obj(vec![
                ("pool_hits".into(), Value::Int(stats.pool_hits as i64)),
                ("pool_misses".into(), Value::Int(stats.pool_misses as i64)),
                ("requests_completed".into(), Value::Int(stats.requests_completed as i64)),
                ("requests_rejected".into(), Value::Int(stats.requests_rejected as i64)),
            ]),
        ));
    }
    let serving = Value::Obj(serving);

    if let Some(path) = flag_value(&args, "--json") {
        if let Err(e) = std::fs::write(&path, serde_json::to_string_pretty(&serving).unwrap()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
    if let Some(path) = flag_value(&args, "--merge-json") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let mut doc = match serde_json::parse_value(&text) {
            Ok(Value::Obj(fields)) => fields,
            Ok(_) => {
                eprintln!("{path}: top level is not a JSON object");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(2);
            }
        };
        match doc.iter_mut().find(|(k, _)| k == "serving") {
            Some((_, slot)) => *slot = serving.clone(),
            None => doc.push(("serving".into(), serving.clone())),
        }
        let out = serde_json::to_string_pretty(&Value::Obj(doc)).unwrap();
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("merged `serving` section into {path}");
    }

    if let Some(path) = flag_value(&args, "--check-floor") {
        let floor = match AcceptanceFloor::load(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot load acceptance floor: {e}");
                std::process::exit(2);
            }
        };
        match floor.check_serving(samples_per_sec, ms(p99)) {
            Ok(()) => println!("serving gate: passed (floor: {path})"),
            Err(msg) => {
                println!("serving gate: FAILED: {msg} (floor: {path})");
                std::process::exit(1);
            }
        }
    }

    if let Some(daemon) = local_daemon {
        daemon.shutdown();
    }
}
