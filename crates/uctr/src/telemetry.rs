//! Pipeline telemetry: lock-free generation counters and the
//! [`PipelineReport`] they aggregate into.
//!
//! The generation path (see [`crate::pipeline`]) silently discards most of
//! the programs it attempts — templates that cannot bind to a table,
//! executions that return empty results (paper §IV-C), splits whose
//! highlighted rows cannot be verbalized. This module makes those discards
//! observable so that dataset composition (paper Table II) can be read off
//! live counters, and so CI can gate on the pipeline's acceptance rate.
//!
//! Design constraints:
//!
//! * **Cheap on the hot path.** All counters are `AtomicU64` bumped with
//!   `Ordering::Relaxed` — no locks, no hashing per event. In
//!   [`crate::pipeline::UctrPipeline::generate_parallel`] every worker owns
//!   its own [`TelemetryBank`], and banks are [`TelemetryBank::merge`]d
//!   after the workers are joined, so parallel generation never contends on
//!   a shared cache line.
//! * **Deterministic counters.** Every counter is a pure function of the
//!   seeded generation stream, so for a fixed seed the counter totals are
//!   identical across 1/2/8-thread runs (asserted by the telemetry tests).
//!   Wall-clock histograms are the exception: they live in the `timings`
//!   section of the report and are excluded from
//!   [`PipelineReport::deterministic_eq`].

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use crate::sample::ProgramKind;

/// Program kinds tracked by the per-kind counter grids. `None` covers the
/// programless text-only lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KindSlot {
    Sql = 0,
    Logic = 1,
    Arith = 2,
    None = 3,
}

pub const N_KINDS: usize = 4;

pub const KIND_NAMES: [&str; N_KINDS] = ["sql", "logic", "arith", "none"];

impl KindSlot {
    pub const ALL: [KindSlot; N_KINDS] =
        [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith, KindSlot::None];

    pub fn name(self) -> &'static str {
        KIND_NAMES[self as usize]
    }

    /// The slot a concrete sample's program falls into.
    pub fn of(kind: &ProgramKind) -> KindSlot {
        match kind {
            ProgramKind::Sql(_) => KindSlot::Sql,
            ProgramKind::Logic(_) => KindSlot::Logic,
            ProgramKind::Arith(_) => KindSlot::Arith,
            ProgramKind::None => KindSlot::None,
        }
    }
}

/// Funnel stages of one program attempt. `Accepted` is recorded at the
/// moment a sample is pushed, so per-kind accepted counts always partition
/// `samples.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Attempted = 0,
    Instantiated = 1,
    Executed = 2,
    Accepted = 3,
}

pub const N_STAGES: usize = 4;

/// Structured discard reasons, unified across the three executor crates'
/// instantiation errors plus the pipeline's own §IV-C filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Discard {
    /// The template bank holds no template for the requested kind.
    NoTemplate = 0,
    /// No table column (or numeric cell tuple) satisfies the template.
    ColumnMismatch = 1,
    /// A bound column had no admissible value to sample.
    ValueMismatch = 2,
    /// The template itself is malformed (unbound hole, dangling reference).
    MalformedTemplate = 3,
    /// Truth-targeted sampling never reached the desired label.
    TruthUnreachable = 4,
    /// Program execution failed (type error, divide-by-zero, ...).
    ExecFailed = 5,
    /// Execution succeeded with an empty result (paper §IV-C: discarded).
    EmptyResult = 6,
    /// The result rendered to an empty answer string.
    EmptyAnswer = 7,
    /// The program succeeded but the sample was dropped by a source-level
    /// filter (table too small to split, no verbalizable highlighted row,
    /// expansion evidence untouched by the program).
    PostFilter = 8,
}

pub const N_REASONS: usize = 9;

pub const DISCARD_NAMES: [&str; N_REASONS] = [
    "no_template",
    "column_mismatch",
    "value_mismatch",
    "malformed_template",
    "truth_unreachable",
    "exec_failed",
    "empty_result",
    "empty_answer",
    "post_filter",
];

impl Discard {
    pub fn name(self) -> &'static str {
        DISCARD_NAMES[self as usize]
    }
}

impl From<sqlexec::SqlInstantiateError> for Discard {
    fn from(e: sqlexec::SqlInstantiateError) -> Discard {
        use sqlexec::SqlInstantiateError::*;
        match e {
            NoCompatibleColumn => Discard::ColumnMismatch,
            NoValueCandidates => Discard::ValueMismatch,
            MalformedTemplate => Discard::MalformedTemplate,
        }
    }
}

impl From<logicforms::LfInstantiateError> for Discard {
    fn from(e: logicforms::LfInstantiateError) -> Discard {
        use logicforms::LfInstantiateError::*;
        match e {
            EmptyTable | NoCompatibleColumn => Discard::ColumnMismatch,
            NoValueCandidates => Discard::ValueMismatch,
            MalformedTemplate => Discard::MalformedTemplate,
            ExecutionFailed => Discard::ExecFailed,
            DegenerateResult => Discard::EmptyResult,
            TruthUnreachable => Discard::TruthUnreachable,
        }
    }
}

impl From<arithexpr::AeInstantiateError> for Discard {
    fn from(e: arithexpr::AeInstantiateError) -> Discard {
        use arithexpr::AeInstantiateError::*;
        match e {
            NotEnoughNumericCells => Discard::ColumnMismatch,
            MalformedTemplate => Discard::MalformedTemplate,
            ExecutionFailed => Discard::ExecFailed,
        }
    }
}

impl From<sqlexec::ExecError> for Discard {
    fn from(_: sqlexec::ExecError) -> Discard {
        Discard::ExecFailed
    }
}

/// Data sources of the generation loop (rows of the paper's ablation grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    TableOnly = 0,
    TextOnly = 1,
    TableSplit = 2,
    TableExpand = 3,
}

pub const N_SOURCES: usize = 4;

pub const SOURCE_NAMES: [&str; N_SOURCES] =
    ["table_only", "text_only", "table_split", "table_expand"];

impl Source {
    pub fn name(self) -> &'static str {
        SOURCE_NAMES[self as usize]
    }
}

/// Instrumented phases of one attempt, each with its own wall-clock
/// histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// Template instantiation (for arithmetic templates this includes the
    /// internal execution, which the executor performs while sampling).
    Instantiate = 0,
    /// Program execution.
    Execute = 1,
    /// Natural-language generation (realization + reranking + noise).
    NlGen = 2,
    /// End-to-end latency of one serving request (queue wait + service),
    /// recorded by the [`crate::serve`] daemon. The batch entry points
    /// never touch this slot or the two below, so batch reports carry
    /// them with zero counts.
    Request = 3,
    /// The part of [`Timer::Request`] a serving request spent in the queue
    /// before a worker took it.
    QueueWait = 4,
    /// The part of [`Timer::Request`] a worker spent on the request (table
    /// parsing + synthesis).
    Service = 5,
}

pub const N_TIMERS: usize = 6;

pub const TIMER_NAMES: [&str; N_TIMERS] =
    ["instantiate", "execute", "nl_gen", "request", "queue_wait", "service"];

/// Number of log2 latency buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` nanoseconds; the last bucket absorbs the tail (~4.3 s+).
pub const HIST_BUCKETS: usize = 32;

/// A coarse log2-bucketed latency histogram over `AtomicU64`s.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    #[inline]
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        // log2 bucket: 0ns and 1ns share bucket 0.
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
    }

    fn merge(&self, other: &AtomicHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Relaxed), Relaxed);
        }
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.total_ns.fetch_add(other.total_ns.load(Relaxed), Relaxed);
    }

    fn snapshot(&self, name: &str) -> TimingReport {
        TimingReport {
            name: name.to_string(),
            count: self.count.load(Relaxed),
            total_ns: self.total_ns.load(Relaxed),
            log2_ns_buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
        }
    }
}

/// The lock-free counter bank one generation run (or one worker of a
/// parallel run) writes into.
#[derive(Debug, Default)]
pub struct TelemetryBank {
    stages: [[AtomicU64; N_STAGES]; N_KINDS],
    /// Attempts skipped by the schema prefilter before instantiation: the
    /// chosen template's static [`tabular::SchemaRequirement`] proved the
    /// table infeasible. A funnel stage of its own, deliberately distinct
    /// from the runtime [`Discard`] reasons — prefiltered pairs never
    /// reached the instantiation sampler.
    prefiltered: [AtomicU64; N_KINDS],
    discards: [[AtomicU64; N_REASONS]; N_KINDS],
    source_attempted: [AtomicU64; N_SOURCES],
    source_accepted: [AtomicU64; N_SOURCES],
    inputs_total: AtomicU64,
    inputs_degenerate: AtomicU64,
    unknown_injected: AtomicU64,
    timers: [AtomicHistogram; N_TIMERS],
}

impl TelemetryBank {
    pub fn new() -> TelemetryBank {
        TelemetryBank::default()
    }

    #[inline]
    pub fn stage(&self, kind: KindSlot, stage: Stage) {
        self.stages[kind as usize][stage as usize].fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn discard(&self, kind: KindSlot, reason: Discard) {
        self.discards[kind as usize][reason as usize].fetch_add(1, Relaxed);
    }

    /// Records one attempt skipped by the schema prefilter.
    #[inline]
    pub fn prefilter(&self, kind: KindSlot) {
        self.prefiltered[kind as usize].fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn source_attempt(&self, source: Source) {
        self.source_attempted[source as usize].fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn source_accept(&self, source: Source) {
        self.source_accepted[source as usize].fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn input(&self, degenerate: bool) {
        self.inputs_total.fetch_add(1, Relaxed);
        if degenerate {
            self.inputs_degenerate.fetch_add(1, Relaxed);
        }
    }

    #[inline]
    pub fn unknown_injected(&self) {
        self.unknown_injected.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn time(&self, timer: Timer, d: Duration) {
        self.timers[timer as usize].record(d);
    }

    /// Runs `f` and records its wall-clock under `timer`.
    #[inline]
    pub fn timed<T>(&self, timer: Timer, f: impl FnOnce() -> T) -> T {
        #[expect(
            clippy::disallowed_methods,
            reason = "Latency histogram measures wall-clock stage durations; timing is \
                      observability-only and never feeds generated data, so determinism of the \
                      corpus is unaffected."
        )]
        let start = std::time::Instant::now();
        let out = f();
        self.time(timer, start.elapsed());
        out
    }

    /// Folds another bank (e.g. a parallel worker's) into this one.
    pub fn merge(&self, other: &TelemetryBank) {
        for (k, grid) in self.stages.iter().enumerate() {
            for (s, cell) in grid.iter().enumerate() {
                cell.fetch_add(other.stages[k][s].load(Relaxed), Relaxed);
            }
        }
        for (k, cell) in self.prefiltered.iter().enumerate() {
            cell.fetch_add(other.prefiltered[k].load(Relaxed), Relaxed);
        }
        for (k, grid) in self.discards.iter().enumerate() {
            for (r, cell) in grid.iter().enumerate() {
                cell.fetch_add(other.discards[k][r].load(Relaxed), Relaxed);
            }
        }
        for (i, cell) in self.source_attempted.iter().enumerate() {
            cell.fetch_add(other.source_attempted[i].load(Relaxed), Relaxed);
        }
        for (i, cell) in self.source_accepted.iter().enumerate() {
            cell.fetch_add(other.source_accepted[i].load(Relaxed), Relaxed);
        }
        self.inputs_total.fetch_add(other.inputs_total.load(Relaxed), Relaxed);
        self.inputs_degenerate.fetch_add(other.inputs_degenerate.load(Relaxed), Relaxed);
        self.unknown_injected.fetch_add(other.unknown_injected.load(Relaxed), Relaxed);
        for (mine, theirs) in self.timers.iter().zip(&other.timers) {
            mine.merge(theirs);
        }
    }

    /// Freezes the counters into a serializable report.
    pub fn report(&self, threads: usize) -> PipelineReport {
        let kinds = KindSlot::ALL
            .iter()
            .map(|&k| {
                let stage = |s: Stage| self.stages[k as usize][s as usize].load(Relaxed);
                KindReport {
                    kind: k.name().to_string(),
                    attempted: stage(Stage::Attempted),
                    prefiltered: self.prefiltered[k as usize].load(Relaxed),
                    instantiated: stage(Stage::Instantiated),
                    executed: stage(Stage::Executed),
                    accepted: stage(Stage::Accepted),
                    discards: (0..N_REASONS)
                        .filter_map(|r| {
                            let count = self.discards[k as usize][r].load(Relaxed);
                            (count > 0).then(|| DiscardReport {
                                reason: DISCARD_NAMES[r].to_string(),
                                count,
                            })
                        })
                        .collect(),
                }
            })
            .collect();
        let sources = (0..N_SOURCES)
            .map(|i| SourceReport {
                source: SOURCE_NAMES[i].to_string(),
                attempted: self.source_attempted[i].load(Relaxed),
                accepted: self.source_accepted[i].load(Relaxed),
            })
            .collect();
        let timings = (0..N_TIMERS).map(|i| self.timers[i].snapshot(TIMER_NAMES[i])).collect();
        PipelineReport {
            threads: threads as u64,
            inputs_total: self.inputs_total.load(Relaxed),
            inputs_degenerate: self.inputs_degenerate.load(Relaxed),
            unknown_injected: self.unknown_injected.load(Relaxed),
            kinds,
            sources,
            timings,
        }
    }
}

/// Per-program-kind funnel counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KindReport {
    pub kind: String,
    pub attempted: u64,
    /// Attempts the schema prefilter skipped before instantiation (a
    /// funnel stage distinct from the runtime `discards`).
    pub prefiltered: u64,
    pub instantiated: u64,
    pub executed: u64,
    pub accepted: u64,
    pub discards: Vec<DiscardReport>,
}

/// One discard reason with its count (zero-count reasons are omitted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscardReport {
    pub reason: String,
    pub count: u64,
}

/// Per-data-source attempt/accept counts (paper Table II composition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceReport {
    pub source: String,
    pub attempted: u64,
    pub accepted: u64,
}

/// One wall-clock histogram: log2-bucketed nanosecond latencies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    /// `log2_ns_buckets[i]` counts durations in `[2^i, 2^(i+1))` ns.
    pub log2_ns_buckets: Vec<u64>,
}

impl TimingReport {
    /// Mean latency in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Estimated `q`-quantile latency in nanoseconds (`q` in `[0, 1]`),
    /// interpolated linearly inside the log2 bucket holding the rank-`⌈qN⌉`
    /// observation. The estimate is bounded by the bucket edges, so it is
    /// never off by more than one octave — adequate for a p99 gate over a
    /// log2 histogram. Returns 0 when nothing was recorded.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.log2_ns_buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            seen += b;
            if seen >= rank {
                // Bucket i spans [2^i, 2^(i+1)) ns, except bucket 0 which
                // also holds 0ns and 1ns durations.
                let lower = if i == 0 { 0u64 } else { 1u64 << i };
                let width = if i == 0 { 2u64 } else { 1u64 << i };
                let into = (b - (seen - rank)) as f64 / b as f64;
                return lower + (width as f64 * into) as u64;
            }
        }
        // Unreachable when the bucket sums equal `count`; fall back to the
        // mean rather than panicking on an inconsistent snapshot.
        self.mean_ns()
    }
}

/// A frozen snapshot of one generation run's telemetry, serializable to
/// JSON for the CI artifact and the bench binaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Worker count of the run (1 for the sequential path).
    pub threads: u64,
    pub inputs_total: u64,
    pub inputs_degenerate: u64,
    /// Verification samples relabeled `Unknown` by evidence swapping.
    pub unknown_injected: u64,
    pub kinds: Vec<KindReport>,
    pub sources: Vec<SourceReport>,
    /// Wall-clock histograms — non-deterministic.
    pub timings: Vec<TimingReport>,
}

impl PipelineReport {
    /// Total program/sample attempts across all sources.
    pub fn attempted(&self) -> u64 {
        self.sources.iter().map(|s| s.attempted).sum()
    }

    /// Total accepted samples (equals the generated `Vec<Sample>` length).
    pub fn accepted(&self) -> u64 {
        self.kinds.iter().map(|k| k.accepted).sum()
    }

    /// Total attempts the schema prefilter skipped, summed over kinds.
    pub fn prefiltered(&self) -> u64 {
        self.kinds.iter().map(|k| k.prefiltered).sum()
    }

    /// Accepted / attempted — the rate the CI floor gates on.
    pub fn acceptance_rate(&self) -> f64 {
        let attempted = self.attempted();
        if attempted == 0 {
            0.0
        } else {
            self.accepted() as f64 / attempted as f64
        }
    }

    /// Accepted counts keyed by program-kind name (`sql` / `logic` /
    /// `arith` / `none`).
    pub fn accepted_by_kind(&self) -> FxHashMap<&str, u64> {
        self.kinds.iter().map(|k| (k.kind.as_str(), k.accepted)).collect()
    }

    /// Total discards keyed by reason name, summed over kinds.
    pub fn discards_by_reason(&self) -> FxHashMap<&str, u64> {
        let mut out: FxHashMap<&str, u64> = FxHashMap::default();
        for k in &self.kinds {
            for d in &k.discards {
                *out.entry(d.reason.as_str()).or_insert(0) += d.count;
            }
        }
        out
    }

    /// The named wall-clock histogram, if the run recorded one (e.g.
    /// `"request"` for the serving daemon's end-to-end latency).
    pub fn timing(&self, name: &str) -> Option<&TimingReport> {
        self.timings.iter().find(|t| t.name == name)
    }

    /// Equality over the deterministic sections — everything except
    /// `threads` and the wall-clock `timings`. Two runs of the same seed must be `deterministic_eq`
    /// regardless of thread count.
    pub fn deterministic_eq(&self, other: &PipelineReport) -> bool {
        self.inputs_total == other.inputs_total
            && self.inputs_degenerate == other.inputs_degenerate
            && self.unknown_injected == other.unknown_injected
            && self.kinds == other.kinds
            && self.sources == other.sources
    }

    pub fn to_json(&self) -> String {
        // Serialization of the plain-data report cannot fail; an empty
        // string is a safe (and greppable) degenerate output.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    pub fn from_json(text: &str) -> Result<PipelineReport, serde::Error> {
        serde_json::from_str(text)
    }

    /// A compact human-readable funnel summary for terminal output.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "inputs: {} ({} degenerate)  attempts: {}  accepted: {}  rate: {:.1}%",
            self.inputs_total,
            self.inputs_degenerate,
            self.attempted(),
            self.accepted(),
            100.0 * self.acceptance_rate()
        );
        for k in self.kinds.iter().filter(|k| k.attempted > 0) {
            let discarded: u64 = k.discards.iter().map(|d| d.count).sum();
            let _ = writeln!(
                s,
                "  {:<6} attempted {:>6}  prefiltered {:>6}  instantiated {:>6}  executed {:>6}  accepted {:>6}  discarded {:>6}",
                k.kind, k.attempted, k.prefiltered, k.instantiated, k.executed, k.accepted, discarded
            );
        }
        for src in self.sources.iter().filter(|src| src.attempted > 0) {
            let _ = writeln!(
                s,
                "  {:<12} attempted {:>6}  accepted {:>6}",
                src.source, src.attempted, src.accepted
            );
        }
        for t in self.timings.iter().filter(|t| t.count > 0) {
            let _ =
                writeln!(s, "  {:<12} {:>8} calls  mean {:>8} ns", t.name, t.count, t.mean_ns());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_discard_counts_round_trip_through_report() {
        let bank = TelemetryBank::new();
        bank.input(false);
        bank.stage(KindSlot::Sql, Stage::Attempted);
        bank.stage(KindSlot::Sql, Stage::Instantiated);
        bank.discard(KindSlot::Sql, Discard::EmptyResult);
        bank.stage(KindSlot::Arith, Stage::Attempted);
        bank.stage(KindSlot::Arith, Stage::Accepted);
        bank.source_attempt(Source::TableOnly);
        bank.source_accept(Source::TableOnly);
        let report = bank.report(1);
        assert_eq!(report.inputs_total, 1);
        assert_eq!(report.accepted(), 1);
        assert_eq!(report.accepted_by_kind()["arith"], 1);
        assert_eq!(report.discards_by_reason()["empty_result"], 1);
        assert_eq!(report.attempted(), 1);
    }

    #[test]
    fn merge_adds_counters() {
        let a = TelemetryBank::new();
        let b = TelemetryBank::new();
        a.stage(KindSlot::Logic, Stage::Attempted);
        b.stage(KindSlot::Logic, Stage::Attempted);
        b.discard(KindSlot::Logic, Discard::TruthUnreachable);
        b.time(Timer::Execute, Duration::from_micros(3));
        a.merge(&b);
        let report = a.report(2);
        let logic = report
            .kinds
            .iter()
            .find(|k| k.kind == "logic")
            .unwrap_or_else(|| panic!("report always carries a logic row"));
        assert_eq!(logic.attempted, 2);
        assert_eq!(logic.discards[0].reason, "truth_unreachable");
        assert_eq!(report.timings[Timer::Execute as usize].count, 1);
    }

    #[test]
    fn prefilter_counts_round_trip_and_merge() {
        let a = TelemetryBank::new();
        let b = TelemetryBank::new();
        a.stage(KindSlot::Sql, Stage::Attempted);
        a.prefilter(KindSlot::Sql);
        b.stage(KindSlot::Sql, Stage::Attempted);
        b.prefilter(KindSlot::Sql);
        b.stage(KindSlot::Arith, Stage::Attempted);
        b.stage(KindSlot::Arith, Stage::Instantiated);
        a.merge(&b);
        let report = a.report(2);
        assert_eq!(report.prefiltered(), 2);
        let sql = report
            .kinds
            .iter()
            .find(|k| k.kind == "sql")
            .unwrap_or_else(|| panic!("report always carries a sql row"));
        assert_eq!(sql.prefiltered, 2);
        assert_eq!(sql.attempted, 2);
        assert!(sql.discards.is_empty(), "prefilter is not a discard reason");
        // Prefilter counts are deterministic state: they participate in
        // deterministic_eq via the kind rows.
        let fresh = TelemetryBank::new().report(1);
        assert!(!report.deterministic_eq(&fresh));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = AtomicHistogram::default();
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_nanos(2)); // bucket 1
        h.record(Duration::from_nanos(1023)); // bucket 9
        h.record(Duration::from_nanos(1024)); // bucket 10
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 4);
        assert_eq!(snap.log2_ns_buckets[0], 1);
        assert_eq!(snap.log2_ns_buckets[1], 1);
        assert_eq!(snap.log2_ns_buckets[9], 1);
        assert_eq!(snap.log2_ns_buckets[10], 1);
    }

    /// A synthetic snapshot with the given per-bucket counts (total_ns set
    /// so mean and totals stay consistent with the bucket lower edges).
    fn timing(name: &str, buckets: &[(usize, u64)]) -> TimingReport {
        let mut t = TimingReport {
            name: name.to_string(),
            count: 0,
            total_ns: 0,
            log2_ns_buckets: vec![0; HIST_BUCKETS],
        };
        for &(i, n) in buckets {
            t.log2_ns_buckets[i] += n;
            t.count += n;
            t.total_ns += n * (1u64 << i);
        }
        t
    }

    #[test]
    fn quantiles_walk_the_buckets_monotonically() {
        // 90 fast (bucket 3: 8-16ns), 9 medium (bucket 10: ~1µs), 1 slow
        // (bucket 20: ~1ms): p50 must land in the fast bucket, p99 in the
        // medium one, p999+ in the slow one.
        let t = timing("request", &[(3, 90), (10, 9), (20, 1)]);
        let p50 = t.quantile_ns(0.50);
        let p99 = t.quantile_ns(0.99);
        let p999 = t.quantile_ns(0.999);
        assert!((8..16).contains(&p50), "p50 = {p50}");
        assert!((1024..=2048).contains(&p99), "p99 = {p99}");
        assert!((1 << 20..=1 << 21).contains(&p999), "p999 = {p999}");
        assert!(p50 <= p99 && p99 <= p999, "quantiles must be monotone");
        // Degenerate cases.
        assert_eq!(timing("t", &[]).quantile_ns(0.99), 0);
        let one = timing("t", &[(5, 1)]);
        assert_eq!(one.quantile_ns(0.0), one.quantile_ns(1.0));
    }

    #[test]
    fn bank_records_request_timer_and_report_finds_it() {
        let bank = TelemetryBank::new();
        bank.time(Timer::Request, Duration::from_micros(100));
        bank.time(Timer::Request, Duration::from_micros(200));
        let report = bank.report(1);
        let req = report.timing("request").unwrap_or_else(|| panic!("request histogram missing"));
        assert_eq!(req.count, 2);
        assert!(req.mean_ns() > 0);
        assert!(report.timing("no_such_timer").is_none());
        // Request latency is live state, not deterministic content.
        assert!(report.deterministic_eq(&TelemetryBank::new().report(1)));
    }

    #[test]
    fn report_json_round_trip() {
        let bank = TelemetryBank::new();
        bank.input(true);
        bank.stage(KindSlot::Sql, Stage::Attempted);
        bank.discard(KindSlot::Sql, Discard::ColumnMismatch);
        bank.time(Timer::NlGen, Duration::from_micros(42));
        let report = bank.report(8);
        let json = report.to_json();
        let back = PipelineReport::from_json(&json)
            .unwrap_or_else(|e| panic!("report json round-trip: {e:?}"));
        assert_eq!(report, back);
        assert!(report.deterministic_eq(&back));
    }

    #[test]
    fn deterministic_eq_ignores_timings() {
        let a = TelemetryBank::new();
        let b = TelemetryBank::new();
        a.stage(KindSlot::Sql, Stage::Attempted);
        b.stage(KindSlot::Sql, Stage::Attempted);
        a.time(Timer::Execute, Duration::from_nanos(10));
        b.time(Timer::Execute, Duration::from_millis(10));
        assert!(a.report(1).deterministic_eq(&b.report(8)));
    }

    #[test]
    fn executor_errors_map_to_discard_reasons() {
        assert_eq!(
            Discard::from(sqlexec::SqlInstantiateError::NoCompatibleColumn),
            Discard::ColumnMismatch
        );
        assert_eq!(
            Discard::from(logicforms::LfInstantiateError::TruthUnreachable),
            Discard::TruthUnreachable
        );
        assert_eq!(
            Discard::from(arithexpr::AeInstantiateError::ExecutionFailed),
            Discard::ExecFailed
        );
    }

    #[test]
    fn acceptance_rate_bounds() {
        let bank = TelemetryBank::new();
        assert_eq!(bank.report(1).acceptance_rate(), 0.0);
        for _ in 0..4 {
            bank.source_attempt(Source::TableOnly);
        }
        bank.source_accept(Source::TableOnly);
        bank.stage(KindSlot::Sql, Stage::Accepted);
        let r = bank.report(1);
        assert!((r.acceptance_rate() - 0.25).abs() < 1e-12);
    }
}
