//! Serving-layer determinism and backpressure, end to end and tokio-free.
//!
//! The daemon's core contract (DESIGN.md §11): a request's sample bytes
//! are a pure function of the request — the same request bytes yield
//! byte-identical samples at every worker count, under any interleaving
//! with co-running traffic, and whether the request was served on a
//! worker's cold or warm scratch. Backpressure is explicit: a full queue
//! rejects at admission with a retry hint and buffers nothing.

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use std::thread;
use uctr::serve::{Daemon, GenRequest, RequestSpec, ServeConfig, SubmitError, WireTable};
use uctr::Sample;

/// A small heterogeneous table set (hand-rolled rather than zoo-imported:
/// the test pins the daemon's behaviour, not the bench corpus).
fn tables() -> Vec<WireTable> {
    let grid = |title: &str, topic: &str, rows: &[&[&str]]| WireTable {
        title: title.into(),
        rows: rows.iter().map(|r| r.iter().map(|c| c.to_string()).collect()).collect(),
        paragraph: None,
        topic: topic.into(),
    };
    vec![
        grid(
            "Clubs",
            "sports",
            &[
                &["club", "city", "points", "wins"],
                &["Reds", "Oslo", "77", "21"],
                &["Blues", "Lima", "64", "18"],
                &["Greens", "Kyiv", "81", "24"],
                &["Golds", "Quito", "59", "15"],
                &["Silvers", "Perth", "70", "19"],
            ],
        ),
        grid(
            "Quarterly revenue",
            "finance",
            &[
                &["division", "q1", "q2", "growth"],
                &["Hardware", "120.5", "134.0", "11.2"],
                &["Software", "210.0", "255.5", "21.7"],
                &["Services", "98.0", "101.5", "3.6"],
            ],
        ),
    ]
}

/// The mixed workload: `IDENTICAL` clones of one QA request (ids differ,
/// bytes that matter do not) interleaved with distinct requests spanning
/// both tasks, several seeds, and different table subsets.
const IDENTICAL: usize = 4;

fn workload() -> Vec<GenRequest> {
    let tables = tables();
    let mut requests = Vec::new();
    for i in 0..IDENTICAL {
        requests.push(GenRequest::generate(i as u64, RequestSpec::qa(7), tables.clone()));
    }
    requests.push(GenRequest::generate(100, RequestSpec::qa(8), tables.clone()));
    requests.push(GenRequest::generate(101, RequestSpec::verification(7), tables.clone()));
    requests.push(GenRequest::generate(102, RequestSpec::verification(9), vec![tables[0].clone()]));
    requests
}

/// Fires the whole workload concurrently (one client thread per request)
/// and returns each request's samples, in workload order.
fn serve_concurrently(daemon: &Daemon, requests: &[GenRequest]) -> Vec<Vec<Sample>> {
    thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|request| scope.spawn(move || daemon.dispatch(request.clone())))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let response = h.join().unwrap();
                assert_eq!(response.status, "ok", "{}", response.message);
                assert!(!response.samples.is_empty(), "every request must yield samples");
                response.samples
            })
            .collect()
    })
}

#[test]
fn samples_are_byte_identical_at_every_worker_count() {
    let requests = workload();
    // Reference run: a single-worker daemon serving the workload serially.
    let reference = {
        let daemon = Daemon::start(ServeConfig::with_shards(1)).unwrap();
        let out: Vec<Vec<Sample>> =
            requests.iter().map(|r| daemon.dispatch(r.clone()).samples).collect();
        daemon.shutdown();
        out
    };
    // The identical group collapses to one byte stream; the distinct
    // requests diverge from it and each other.
    for i in 1..IDENTICAL {
        assert_eq!(reference[0], reference[i], "identical requests must agree");
    }
    assert_ne!(reference[0], reference[IDENTICAL], "seed 7 vs 8 must diverge");
    assert_ne!(reference[IDENTICAL + 1], reference[IDENTICAL + 2], "distinct claims must diverge");

    for workers in 1..=8 {
        let daemon = Daemon::start(ServeConfig::with_shards(workers)).unwrap();
        // Twice per daemon: the first pass runs on cold scratch, the second
        // on warm recycled scratch — bytes must not notice.
        for pass in 0..2 {
            let served = serve_concurrently(&daemon, &requests);
            for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
                assert_eq!(got, want, "request {i} diverged with {workers} workers (pass {pass})");
            }
        }
        let stats = daemon.stats();
        assert_eq!(stats.requests_completed, 2 * requests.len() as u64);
        assert_eq!(stats.requests_failed, 0);
        daemon.shutdown();
    }
}

#[test]
fn tiny_queue_bound_rejects_exactly_the_overflow() {
    // A paused daemon holds queue_bound requests per worker: of more
    // concurrent submissions than that, exactly queue_bound × workers are
    // admitted and the rest are rejected with the configured retry hint —
    // deterministically, because no worker is draining the queue underneath
    // the submitters.
    for (workers, submissions) in [(1usize, 6usize), (2, 8)] {
        let cfg = ServeConfig {
            shards: workers,
            queue_bound: 2,
            retry_after_ms: 3,
            paused: true,
            ..ServeConfig::default()
        };
        let capacity = 2 * workers;
        let daemon = Arc::new(Daemon::start(cfg).unwrap());
        let request = GenRequest::generate(0, RequestSpec::qa(5), tables());
        let outcomes: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = (0..submissions)
                .map(|_| {
                    let daemon = Arc::clone(&daemon);
                    let request = request.clone();
                    scope.spawn(move || daemon.submit(request))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let admitted = outcomes.iter().filter(|o| o.is_ok()).count();
        let rejected = outcomes
            .iter()
            .filter(|o| matches!(o, Err(SubmitError::Rejected { retry_after_ms: 3 })))
            .count();
        assert_eq!(admitted, capacity, "{workers} workers: queue_bound × workers are admitted");
        assert_eq!(rejected, submissions - capacity, "{workers} workers: overflow is retryable");
        let stats = daemon.stats();
        assert_eq!(stats.requests_rejected, (submissions - capacity) as u64);
        assert_eq!(stats.queue_depth, capacity as u64, "rejections buffered nothing");

        // Un-pause: the admitted requests complete with identical bytes, and
        // a rejected client's retry now succeeds and reproduces the same
        // bytes.
        daemon.resume().unwrap();
        let mut replies = Vec::new();
        for rx in outcomes.into_iter().flatten() {
            let response = rx.recv().unwrap();
            assert_eq!(response.status, "ok", "{}", response.message);
            replies.push(response.samples);
        }
        for reply in &replies[1..] {
            assert_eq!(reply, &replies[0], "queued twins must agree");
        }
        let retried = daemon.dispatch(request);
        assert_eq!(retried.status, "ok", "{}", retried.message);
        assert_eq!(retried.samples, replies[0], "a retry reproduces the rejected request's bytes");
        assert_eq!(daemon.stats().requests_completed, capacity as u64 + 1);
        daemon.shutdown();
    }
}

#[test]
fn co_running_noise_does_not_perturb_a_request() {
    // A victim request served alone must match the same request served
    // while a barrage of unrelated traffic churns the same two workers,
    // queue, and scratch.
    let victim = GenRequest::generate(1, RequestSpec::verification(42), tables());
    let alone = {
        let daemon = Daemon::start(ServeConfig::with_shards(2)).unwrap();
        let r = daemon.dispatch(victim.clone());
        daemon.shutdown();
        r.samples
    };
    let daemon = Daemon::start(ServeConfig::with_shards(2)).unwrap();
    let under_load = thread::scope(|scope| {
        let noise_makers: Vec<_> = (0..4)
            .map(|i| {
                let daemon = &daemon;
                scope.spawn(move || {
                    for round in 0..6 {
                        let spec = RequestSpec::qa(1000 + i * 100 + round);
                        let response =
                            daemon.dispatch(GenRequest::generate(900 + i, spec, tables()));
                        assert_eq!(response.status, "ok", "{}", response.message);
                    }
                })
            })
            .collect();
        let samples = daemon.dispatch(victim.clone()).samples;
        for h in noise_makers {
            h.join().unwrap();
        }
        samples
    });
    assert_eq!(alone, under_load, "co-running requests must not leak into the RNG namespace");
    daemon.shutdown();
}
