//! Metric names, units, and the result line.
//!
//! Every workload prints every metric of its kind: all end-to-end metrics
//! when untraced, all per-layer metrics when traced. A per-layer metric
//! that has no meaning on a workload (a queue wait in a batch pass) reads 0.

use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("samples_per_s", "samples/s"), ("p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tabular.ctx_build_ms", "ms"),
    ("tabular.ctx_build_share", "ratio"),
    ("tabular.typing_ms", "ms"),
    ("program.instantiate_us", "us"),
    ("program.instantiate_calls", "count"),
    ("program.execute_us", "us"),
    ("program.execute_calls", "count"),
    ("nlgen.verbalize_us", "us"),
    ("nlgen.verbalize_calls", "count"),
    ("textops.split_us", "us"),
    ("textops.expand_us", "us"),
    ("pipeline.attempts", "count"),
    ("pipeline.accepted", "count"),
    ("pipeline.accept_ratio", "ratio"),
    ("pipeline.prefilter_ratio", "ratio"),
    ("pipeline.allocs_per_sample", "count"),
    ("pipeline.parallel_speedup", "x"),
    ("pipeline.unattributed_share", "ratio"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.rejected", "count"),
    ("serve.reject_ratio", "ratio"),
    ("serve.stolen", "count"),
    ("serve.pool_hit_ratio", "ratio"),
    ("wire.req_bytes", "bytes"),
    ("wire.resp_bytes_per_sample", "bytes"),
    ("wire.req_encode_ms", "ms"),
    ("wire.req_decode_ms", "ms"),
    ("wire.resp_encode_ms", "ms"),
    ("wire.resp_decode_ms", "ms"),
    ("wire.transport_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("p99_ms", "ms"),
    ("lo.p50_ms", "ms"),
    ("lo.p99_ms", "ms"),
    ("hi.p50_ms", "ms"),
    ("hi.p99_ms", "ms"),
    ("heavy.p50_ms", "ms"),
    ("max_rps", "req/s"),
    ("failed_frac", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (passes or requests) and how many failed: an
    /// output mismatch, an error response, a connection error, or a
    /// request unfinished at drain.
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        self.values.insert(name, if value.is_finite() { value + 0.0 } else { 0.0 });
    }

    /// Reports the fastest of a run's set-up repetitions as `setup_s`, and
    /// notes how the repetitions spread. Set-up is fixed CPU work, so the
    /// slower repetitions measure the host rather than the program.
    pub fn set_setup(&mut self, secs: &[f64]) {
        let fastest = secs.iter().copied().fold(f64::INFINITY, f64::min);
        self.set("setup_s", fastest);
        self.notes.push(format!(
            "set-up: {} repetitions, fastest {:.3} ms, median {:.3} ms",
            secs.len(),
            fastest * 1e3,
            crate::stats::median(secs) * 1e3
        ));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics(&self, traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The metric table, one `name value unit` line each.
    pub fn table(&self, traced: bool) -> Vec<String> {
        self.metrics(traced)
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!("  {name:<30} {v:>14.4} {unit}")
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics.
    pub fn json(&self, traced: bool) -> Value {
        let metrics = self
            .metrics(traced)
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Float(v)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}
