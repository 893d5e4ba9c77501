//! In-memory spans, written out once when the run ends.
//!
//! Spans come from three places. `Measured` spans time a call the benchmark
//! itself makes (a pipeline pass, a request round trip). `Reported` spans
//! carry a duration the program already reports (`PipelineReport.timings`,
//! `queue_ns`/`service_ns`). `Estimate` spans time a layer the program does
//! not report by calling its public function on the same inputs, and record
//! per-call cost × call count. Derived spans have no interval of their own;
//! they are laid at their parent's start. The children of one span are
//! disjoint by construction (queue wait, then service; one aggregate per
//! layer), so the part of a parent they cover is the sum of their durations.

use serde_json::Value;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Measured,
    Reported,
    Estimate,
}

pub struct Span {
    pub name: &'static str,
    /// The pass or request the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Threads the span's interval ran on: its capacity is the duration
    /// times `lanes` (a parallel pass), and its children are thread time.
    pub lanes: u32,
    pub kind: Kind,
}

impl Span {
    pub fn capacity_ns(&self) -> u64 {
        (self.end_ns - self.start_ns) * u64::from(self.lanes)
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace { origin, spans: Vec::new() }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a measured interval and returns its index.
    pub fn measured(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
        lanes: u32,
    ) -> usize {
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.at(start),
            end_ns: self.at(end).max(self.at(start)),
            lanes: lanes.max(1),
            kind: Kind::Measured,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a reported or estimated child of `parent`.
    pub fn derived(&mut self, parent: usize, name: &'static str, dur_ns: u64, kind: Kind) -> usize {
        let (op, start_ns) = (self.spans[parent].op, self.spans[parent].start_ns);
        let span = Span {
            name,
            op,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
            lanes: 1,
            kind,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Each span's capacity minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.capacity_ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.capacity_ns().saturating_sub(c)).collect()
    }

    /// Writes every span as JSON, after `header` fields.
    pub fn write(&self, path: &Path, header: Vec<(String, Value)>) -> std::io::Result<()> {
        let selfs = self.self_ns();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, own)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("op".into(), Value::Int(s.op as i64)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Int(p as i64))),
                    ("start_ns".into(), Value::Int(s.start_ns as i64)),
                    ("end_ns".into(), Value::Int(s.end_ns as i64)),
                    ("lanes".into(), Value::Int(i64::from(s.lanes))),
                    ("kind".into(), Value::Str(format!("{:?}", s.kind).to_lowercase())),
                    ("self_ns".into(), Value::Int(own as i64)),
                ])
            })
            .collect();
        let mut doc = header;
        doc.push(("spans".into(), Value::Arr(spans)));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, serde_json::to_string(&Value::Obj(doc)).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_capacity_minus_children() {
        let t0 = Instant::now();
        let mut trace = Trace::new(t0);
        let pass = trace.measured("pass", 1, None, (t0, t0 + Duration::from_nanos(1000)), 2);
        trace.derived(pass, "a", 600, Kind::Reported);
        trace.derived(pass, "b", 500, Kind::Estimate);
        let req = trace.measured("request", 2, None, (t0, t0 + Duration::from_nanos(100)), 1);
        trace.derived(req, "a", 300, Kind::Reported);
        assert_eq!(trace.self_ns(), vec![900, 600, 500, 0, 300]);
    }
}
