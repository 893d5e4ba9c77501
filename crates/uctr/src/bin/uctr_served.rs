//! `uctr-served` — the generation daemon.
//!
//! Binds a TCP address and serves length-prefixed JSON [`uctr::GenRequest`]
//! frames until killed. See DESIGN.md §11 for the protocol and README.md
//! for usage.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::net::TcpListener;
use std::sync::Arc;
use uctr::serve::{Daemon, ServeConfig};

const USAGE: &str = "usage: uctr-served [--addr HOST:PORT] [--shards N] [--queue-bound N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7771".to_string();
    let mut cfg = ServeConfig {
        shards: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
        ..ServeConfig::default()
    };

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut take = |what: &str| match it.next() {
            Some(v) => v.clone(),
            None => fail(&format!("{flag} needs a {what}\n{USAGE}")),
        };
        match flag.as_str() {
            "--addr" => addr = take("HOST:PORT"),
            "--shards" => cfg.shards = parse(flag, &take("count")),
            "--queue-bound" => cfg.queue_bound = parse(flag, &take("count")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag `{other}`\n{USAGE}")),
        }
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => fail(&format!("cannot bind {addr}: {e}")),
    };
    let local = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => fail(&format!("cannot resolve bound address: {e}")),
    };
    let daemon = match Daemon::start(cfg.clone()) {
        Ok(d) => Arc::new(d),
        Err(e) => fail(&format!("cannot start workers: {e}")),
    };
    // Single parseable readiness line: loadgen and the CI smoke step wait
    // for it before opening connections.
    println!(
        "uctr-served listening on {local} shards={} queue_bound={}",
        cfg.shards, cfg.queue_bound
    );
    daemon.accept_loop(listener);
}

fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    match raw.parse() {
        Ok(v) => v,
        Err(_) => fail(&format!("{flag}: cannot parse `{raw}`")),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("uctr-served: {message}");
    std::process::exit(2);
}
