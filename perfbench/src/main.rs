//! Seeded benchmark of the UCTR generator: four workloads over the public
//! API (`UctrPipeline`, `Daemon`, `Client`), end-to-end metrics with
//! tracing off, and a per-layer breakdown from a separate traced run.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `batch-ragged`, `batch-wide`, `serve-wire`, `serve-queue`
//! (see `BENCHMARK.json` for why each exists). Run from the repository
//! root. Human-readable lines come first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Traced runs also write their spans to `perfbench/out/`. The process
//! exits non-zero when any output differs from its reference.

mod alloc;
mod batch;
mod estimate;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

use report::Outcome;
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["batch-ragged", "batch-wide", "serve-wire", "serve-queue"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?} or all)"
        ));
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: number("--seed")?, seconds, traced })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let host = stats::Host::collect(args.seconds);
    let origin = Instant::now();
    let mut spans = trace::Trace::new(origin);
    let mut out = match args.workload.as_str() {
        "batch-ragged" => {
            batch::run(batch::Shape::Ragged, args.seed, args.seconds, args.traced, &mut spans)
        }
        "batch-wide" => {
            batch::run(batch::Shape::Wide, args.seed, args.seconds, args.traced, &mut spans)
        }
        "serve-wire" => serve::run_wire(args.seed, args.seconds, args.traced, &mut spans),
        _ => serve::run_queue(args.seed, args.seconds, args.traced, &mut spans),
    };
    out.set("peak_rss_mb", stats::peak_rss_mib());

    println!("{}", host.line());
    println!("workload: {} seed={} trace={}", args.workload, args.seed, u8::from(args.traced));
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "{} metrics ({} attempted, {} failed):",
        if args.traced { "per-layer" } else { "end-to-end" },
        out.attempted,
        out.failed
    );
    for line in out.table(args.traced) {
        println!("{line}");
    }
    if args.traced {
        let path = format!("perfbench/out/trace-{}-seed{}.json", args.workload, args.seed);
        let header = vec![
            ("workload".into(), Value::Str(args.workload.clone())),
            ("seed".into(), Value::Int(args.seed as i64)),
            ("nproc".into(), Value::Int(host.nproc as i64)),
            ("cpus_online".into(), Value::Int(host.cpus_online as i64)),
            ("commit".into(), Value::Str(host.commit.clone())),
            ("run_seconds".into(), Value::Int(host.seconds as i64)),
            ("result".into(), out.json(true)),
        ];
        match spans.write(std::path::Path::new(&path), header) {
            Ok(()) => println!("spans: {} written to {path}", spans.spans.len()),
            Err(e) => println!("spans: cannot write {path}: {e}"),
        }
    }
    println!("{}", serde_json::to_string(&out.json(args.traced)).unwrap_or_default());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process (so each has its own peak RSS),
/// prints each one's output, and ends with one result line whose metrics
/// are named `<workload>/<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all = Outcome::default();
    let mut metrics = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .output();
        let output = match child {
            Ok(output) => output,
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        ok &= output.status.success();
        let last = text.lines().last().unwrap_or_default();
        let Ok(Value::Obj(fields)) = serde_json::parse_value(last) else {
            eprintln!("perfbench: {workload} printed no result line");
            ok = false;
            continue;
        };
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("attempted", Value::Int(n)) => all.attempted += n as u64,
                ("failed", Value::Int(n)) => all.failed += n as u64,
                ("metrics", Value::Obj(m)) => {
                    metrics.extend(m.into_iter().map(|(k, v)| (format!("{workload}/{k}"), v)))
                }
                _ => {}
            }
        }
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(ok && all.correct())),
        ("attempted".into(), Value::Int(all.attempted as i64)),
        ("failed".into(), Value::Int(all.failed as i64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if ok && all.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
