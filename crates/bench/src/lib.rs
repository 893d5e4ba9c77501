//! Shared harness code for the experiment binaries.
//!
//! One binary per paper table/figure regenerates the corresponding artifact
//! (see DESIGN.md §12). This library holds the evaluation plumbing they
//! share: model training wrappers per setting (supervised / unsupervised /
//! few-shot / augmentation), per-evidence-type breakdowns, and the table
//! printer that renders paper-vs-measured rows.

// Stdout tables and floor verdicts are this crate's product, not stray debug
// output.
#![allow(clippy::print_stdout)]

pub mod zoo;

use models::{
    em_f1, feverous_score, label_accuracy, micro_f1, EvidenceView, QaModel, TrainConfig,
    VerdictSpace, VerifierModel,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::Value;
use tabular::Table;
use uctr::{EvidenceType, PipelineReport, Sample, Verdict};

/// Fixed seed for the few-shot subset (paper: "randomly selected from the
/// original training set").
pub const FEW_SHOT_SEED: u64 = 50;

/// Picks `n` random training samples (the few-shot budget; paper uses 50).
pub fn few_shot(train: &[Sample], n: usize) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(FEW_SHOT_SEED);
    let mut idx: Vec<usize> = (0..train.len()).collect();
    idx.shuffle(&mut rng);
    idx.into_iter().take(n).map(|i| train[i].clone()).collect()
}

/// Restricts a sample's evidence (used for the Text-Span-only /
/// Table-Cell-only baselines of Table III).
pub fn restrict(sample: &Sample, view: EvidenceView) -> Sample {
    match view {
        EvidenceView::Full => sample.clone(),
        EvidenceView::TableOnly => {
            let mut s = sample.clone();
            s.context.clear();
            s
        }
        EvidenceView::SentenceOnly => {
            let mut s = sample.clone();
            s.table = Table::from_strings(&sample.table.title, &[vec![]])
                .map(tabular::SharedTable::new)
                .unwrap_or_else(|_| sample.table.clone());
            s
        }
    }
}

pub fn restrict_all(samples: &[Sample], view: EvidenceView) -> Vec<Sample> {
    samples.iter().map(|s| restrict(s, view)).collect()
}

/// EM/F1 of a QA model on an evaluation set.
pub fn qa_em_f1(model: &QaModel, samples: &[Sample]) -> (f64, f64) {
    let pairs: Vec<(String, String)> = samples
        .iter()
        .filter_map(|s| Some((model.predict(s), s.label.as_answer()?.to_string())))
        .collect();
    em_f1(&pairs)
}

/// EM/F1 broken down by evidence type plus the total (Table III layout).
pub fn qa_breakdown(model: &QaModel, samples: &[Sample]) -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    for ev in [EvidenceType::TableOnly, EvidenceType::TableText, EvidenceType::TextOnly] {
        let subset: Vec<Sample> = samples.iter().filter(|s| s.evidence == ev).cloned().collect();
        let (em, f1) = qa_em_f1(model, &subset);
        rows.push((ev.to_string(), em, f1));
    }
    let (em, f1) = qa_em_f1(model, samples);
    rows.push(("Total".to_string(), em, f1));
    rows
}

/// Verdict predictions of a verifier on a set.
pub fn verifier_predictions(model: &VerifierModel, samples: &[Sample]) -> Vec<Verdict> {
    samples.iter().map(|s| model.predict(s)).collect()
}

/// (label accuracy, FEVEROUS score) of a verifier.
pub fn verifier_feverous(model: &VerifierModel, samples: &[Sample]) -> (f64, f64) {
    let preds = verifier_predictions(model, samples);
    let pairs: Vec<(Verdict, Verdict)> =
        preds.iter().zip(samples).filter_map(|(p, s)| Some((*p, s.label.as_verdict()?))).collect();
    (label_accuracy(&pairs), feverous_score(samples, &preds))
}

/// 3-way micro F1 of a verifier.
pub fn verifier_micro_f1(model: &VerifierModel, samples: &[Sample]) -> f64 {
    let pairs: Vec<(Verdict, Verdict)> =
        samples.iter().filter_map(|s| Some((model.predict(s), s.label.as_verdict()?))).collect();
    micro_f1(&pairs)
}

/// Pretrain-on-synthetic then fine-tune-on-gold (the few-shot recipe:
/// a light fine-tune that must not wash out the pretraining).
pub fn pretrain_finetune_verifier(
    synthetic: &[Sample],
    gold: &[Sample],
    space: VerdictSpace,
) -> VerifierModel {
    pretrain_finetune_verifier_epochs(synthetic, gold, space, 4)
}

/// Augmentation recipe (paper §V-D): pretrain on synthetic, then fine-tune
/// on the FULL gold train set with full training epochs.
pub fn pretrain_finetune_verifier_epochs(
    synthetic: &[Sample],
    gold: &[Sample],
    space: VerdictSpace,
    epochs: usize,
) -> VerifierModel {
    let mut model = VerifierModel::train(synthetic, space, EvidenceView::Full);
    model.fine_tune(gold, TrainConfig { epochs, ..TrainConfig::default() });
    model
}

/// Few-shot recipe for QA.
pub fn pretrain_finetune_qa(synthetic: &[Sample], gold: &[Sample]) -> QaModel {
    pretrain_finetune_qa_epochs(synthetic, gold, 4)
}

/// Augmentation recipe for QA (full fine-tuning epochs).
pub fn pretrain_finetune_qa_epochs(
    synthetic: &[Sample],
    gold: &[Sample],
    epochs: usize,
) -> QaModel {
    let mut model = QaModel::train(synthetic);
    model.fine_tune(gold, TrainConfig { epochs, ..TrainConfig::default() });
    model
}

/// Data-augmentation recipe for convex models (Table VII): train on the
/// union of synthetic and gold data, with gold replicated so it carries at
/// least equal weight. For a max-ent model, sequential fine-tuning with
/// full epochs converges back to the gold-only optimum, so the synthetic
/// data must enter the same objective to act as the prior it is for a
/// neural model's pretraining.
pub fn augment_union(synthetic: &[Sample], gold: &[Sample]) -> Vec<Sample> {
    let mut data = synthetic.to_vec();
    let k = (synthetic.len() / gold.len().max(1)).max(1);
    for _ in 0..k {
        data.extend(gold.iter().cloned());
    }
    data
}

/// Union-trained augmented verifier.
pub fn augment_verifier(
    synthetic: &[Sample],
    gold: &[Sample],
    space: VerdictSpace,
) -> VerifierModel {
    VerifierModel::train(&augment_union(synthetic, gold), space, EvidenceView::Full)
}

/// Union-trained augmented QA model.
pub fn augment_qa(synthetic: &[Sample], gold: &[Sample]) -> QaModel {
    QaModel::train(&augment_union(synthetic, gold))
}

// ---------------------------------------------------------------------------
// Pipeline telemetry plumbing (CI gate).
// ---------------------------------------------------------------------------

/// Looks up `--name VALUE` in a binary's argument list.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// A Table II-style composition row built from a run's live counters:
/// accepted samples per program kind and per data source.
pub fn composition_row(name: &str, report: &PipelineReport) -> Vec<String> {
    let kinds = report
        .kinds
        .iter()
        .filter(|k| k.accepted > 0)
        .map(|k| format!("{} {}", k.accepted, k.kind))
        .collect::<Vec<_>>()
        .join(", ");
    let sources = report
        .sources
        .iter()
        .filter(|s| s.accepted > 0)
        .map(|s| format!("{} {}", s.accepted, s.source))
        .collect::<Vec<_>>()
        .join(", ");
    vec![
        name.to_string(),
        report.inputs_total.to_string(),
        report.accepted().to_string(),
        format!("{:.1}%", report.acceptance_rate() * 100.0),
        if kinds.is_empty() { "-".into() } else { kinds },
        if sources.is_empty() { "-".into() } else { sources },
    ]
}

/// Serializes named pipeline reports into one JSON object keyed by run name
/// (the CI artifact format).
pub fn reports_to_json(reports: &[(String, PipelineReport)]) -> String {
    let entries: Vec<(String, Value)> =
        reports.iter().map(|(n, r)| (n.clone(), serde_json::to_value(r))).collect();
    serde_json::to_string_pretty(&Value::Obj(entries)).expect("report serialization is infallible")
}

/// The committed generation-quality floor (`ci/acceptance_floor.json`). CI
/// regenerates the synthesis reports and fails the build when any run drops
/// below these thresholds — a regression gate on the generation funnel, not
/// just on unit tests.
///
/// Only the two funnel fields are required to parse, because
/// `tab2_dataset_stats` reads nothing else. Every `bench_*` gate instead
/// requires its own keys when it runs: a gate whose baseline, ceiling or
/// margin is missing (or not a positive number) fails and names the key,
/// so a deleted or misspelled key cannot disarm it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceFloor {
    /// Minimum accepted-samples / source-attempts ratio per run.
    pub min_acceptance_rate: f64,
    /// Minimum absolute number of accepted samples per run.
    pub min_accepted: u64,
    /// Recorded `bench_pipeline` single-thread throughput (samples/sec on
    /// the ragged table zoo) at the last calibration.
    /// `bench_pipeline --check-floor` fails when the measured rate
    /// regresses more than `bench_max_throughput_regression` below it
    /// (one-sided — being faster never fails; recalibrate to ratchet the
    /// floor up).
    pub bench_single_thread_samples_per_sec: Option<f64>,
    /// Recorded `bench_pipeline` saturated-thread throughput. Same
    /// one-sided gate as the single-thread baseline.
    pub bench_saturated_samples_per_sec: Option<f64>,
    /// Recorded `bench_pipeline` large-table stress-tier throughput
    /// (single-thread over `bench::zoo::stress_zoo`). Same one-sided gate:
    /// large-table regressions (per-sample table clones, context rebuild
    /// inside attempt loops) show up here long before the small-table zoo
    /// notices them.
    pub bench_stress_samples_per_sec: Option<f64>,
    /// Allowed fractional throughput regression before the bench and
    /// serving throughput gates fail (best-of-N repeats absorb most runner
    /// noise, the margin absorbs the rest).
    pub bench_max_throughput_regression: Option<f64>,
    /// Allowed fractional gap of the mined-bank rate below the builtin
    /// single-thread rate measured in the same `bench_pipeline` process.
    /// Calibrated separately because the *ratio* of two back-to-back
    /// best-of-N measurements is itself host-sensitive: the same commit
    /// measures −12% on an idle box and −19% under co-running load, so the
    /// ratio gate needs more headroom than an absolute floor does.
    pub bench_mined_max_gap: Option<f64>,
    /// Recorded `loadgen` closed-loop sustained throughput against the
    /// serving daemon (samples/sec). Same one-sided gate as the batch
    /// throughput baselines, applied by `loadgen --check-floor`.
    pub bench_serving_samples_per_sec: Option<f64>,
    /// Recorded `loadgen` closed-loop p99 end-to-end latency in
    /// milliseconds. One-sided in the other direction: the measured p99
    /// may exceed this by at most `bench_serving_max_p99_regression`;
    /// being faster never fails.
    pub bench_serving_p99_ms: Option<f64>,
    /// Allowed fractional p99 increase before the serving gate fails (1.0
    /// is 2×; tail latency on shared runners is far noisier than
    /// throughput).
    pub bench_serving_max_p99_regression: Option<f64>,
    /// Ceiling on `bench_pipeline` steady-state allocations per accepted
    /// sample (counting-allocator measurement over the ragged zoo,
    /// warmup excluded). Absolute, not relative: allocation counts are
    /// deterministic for a given workload, so any increase is a real
    /// regression, and `bench_pipeline --check-floor` fails hard on it.
    pub bench_max_allocs_per_sample: Option<f64>,
}

impl AcceptanceFloor {
    pub fn parse(text: &str) -> Result<AcceptanceFloor, String> {
        let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        let rate = v
            .get("min_acceptance_rate")
            .and_then(Value::as_f64)
            .ok_or("missing `min_acceptance_rate`")?;
        let accepted =
            v.get("min_accepted").and_then(Value::as_i64).ok_or("missing `min_accepted`")?;
        Ok(AcceptanceFloor {
            min_acceptance_rate: rate,
            min_accepted: accepted as u64,
            bench_single_thread_samples_per_sec: v
                .get("bench_single_thread_samples_per_sec")
                .and_then(Value::as_f64),
            bench_saturated_samples_per_sec: v
                .get("bench_saturated_samples_per_sec")
                .and_then(Value::as_f64),
            bench_stress_samples_per_sec: v
                .get("bench_stress_samples_per_sec")
                .and_then(Value::as_f64),
            bench_max_throughput_regression: v
                .get("bench_max_throughput_regression")
                .and_then(Value::as_f64),
            bench_mined_max_gap: v.get("bench_mined_max_gap").and_then(Value::as_f64),
            bench_serving_samples_per_sec: v
                .get("bench_serving_samples_per_sec")
                .and_then(Value::as_f64),
            bench_serving_p99_ms: v.get("bench_serving_p99_ms").and_then(Value::as_f64),
            bench_serving_max_p99_regression: v
                .get("bench_serving_max_p99_regression")
                .and_then(Value::as_f64),
            bench_max_allocs_per_sample: v
                .get("bench_max_allocs_per_sample")
                .and_then(Value::as_f64),
        })
    }

    pub fn load(path: &str) -> Result<AcceptanceFloor, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        AcceptanceFloor::parse(&text)
    }

    /// Checks one run against the floor; `Err` carries the CI failure text.
    pub fn check(&self, name: &str, report: &PipelineReport) -> Result<(), String> {
        let rate = report.acceptance_rate();
        if rate < self.min_acceptance_rate {
            return Err(format!(
                "{name}: acceptance rate {:.3} below floor {:.3}",
                rate, self.min_acceptance_rate
            ));
        }
        if report.accepted() < self.min_accepted {
            return Err(format!(
                "{name}: {} accepted samples below floor {}",
                report.accepted(),
                self.min_accepted
            ));
        }
        Ok(())
    }

    /// One-sided throughput ratchet for `bench_pipeline`: each measured
    /// rate may fall at most `bench_max_throughput_regression` below its
    /// recorded baseline. Running faster than the baseline always passes.
    pub fn check_bench_throughput(
        &self,
        single: f64,
        saturated: f64,
        stress: f64,
    ) -> Result<(), String> {
        let max_regression =
            required(self.bench_max_throughput_regression, "bench_max_throughput_regression")?;
        for (label, measured, baseline, key) in [
            (
                "single-thread",
                single,
                self.bench_single_thread_samples_per_sec,
                "bench_single_thread_samples_per_sec",
            ),
            (
                "saturated",
                saturated,
                self.bench_saturated_samples_per_sec,
                "bench_saturated_samples_per_sec",
            ),
            ("stress", stress, self.bench_stress_samples_per_sec, "bench_stress_samples_per_sec"),
        ] {
            let baseline = required(baseline, key)?;
            let floor = baseline * (1.0 - max_regression);
            if measured < floor {
                return Err(format!(
                    "{label} throughput {measured:.0}/sec regressed more than \
                     {:.0}% below baseline {baseline:.0}/sec (floor {floor:.0}/sec)",
                    max_regression * 100.0
                ));
            }
        }
        Ok(())
    }

    /// Relative gate on the mined bank: its rate may fall at most
    /// `bench_mined_max_gap` below the builtin single-thread rate measured
    /// in the same process, so the ratio measures the template index
    /// rather than the runner.
    pub fn check_mined_gap(&self, mined: f64, builtin: f64) -> Result<(), String> {
        let max_gap = required(self.bench_mined_max_gap, "bench_mined_max_gap")?;
        let floor = builtin * (1.0 - max_gap);
        if mined < floor {
            return Err(format!(
                "mined-bank rate {mined:.0}/s fell more than {:.0}% below the builtin \
                 single-thread rate {builtin:.0}/s",
                max_gap * 100.0
            ));
        }
        Ok(())
    }

    /// One-sided serving gate for `loadgen --check-floor`: sustained
    /// throughput may regress at most `bench_max_throughput_regression`
    /// below its baseline, and p99 latency may rise at most
    /// `bench_serving_max_p99_regression` above its baseline. Faster and
    /// lower always pass.
    pub fn check_serving(&self, samples_per_sec: f64, p99_ms: f64) -> Result<(), String> {
        let max_regression =
            required(self.bench_max_throughput_regression, "bench_max_throughput_regression")?;
        let baseline =
            required(self.bench_serving_samples_per_sec, "bench_serving_samples_per_sec")?;
        let floor = baseline * (1.0 - max_regression);
        if samples_per_sec < floor {
            return Err(format!(
                "serving throughput {samples_per_sec:.0}/sec regressed more than \
                 {:.0}% below baseline {baseline:.0}/sec (floor {floor:.0}/sec)",
                max_regression * 100.0
            ));
        }
        let p99_headroom =
            required(self.bench_serving_max_p99_regression, "bench_serving_max_p99_regression")?;
        let baseline = required(self.bench_serving_p99_ms, "bench_serving_p99_ms")?;
        let ceiling = baseline * (1.0 + p99_headroom);
        if p99_ms > ceiling {
            return Err(format!(
                "serving p99 latency {p99_ms:.2}ms rose more than {:.0}% above \
                 baseline {baseline:.2}ms (ceiling {ceiling:.2}ms)",
                p99_headroom * 100.0
            ));
        }
        Ok(())
    }

    /// Hard ceiling on steady-state allocations per accepted sample.
    /// Allocation counts are workload-deterministic (no wall-clock in the
    /// measurement), so unlike the throughput gates this one has no noise
    /// margin.
    pub fn check_bench_allocs(&self, allocs_per_sample: f64) -> Result<(), String> {
        let ceiling = required(self.bench_max_allocs_per_sample, "bench_max_allocs_per_sample")?;
        if allocs_per_sample > ceiling {
            return Err(format!(
                "steady-state allocations {allocs_per_sample:.1}/sample exceed the \
                 recorded ceiling {ceiling:.1}/sample"
            ));
        }
        Ok(())
    }
}

/// A gate's recorded value, or the error naming the floor key it lacks.
fn required(value: Option<f64>, key: &str) -> Result<f64, String> {
    value
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("the floor file has no positive `{key}`"))
}

/// Formats one `bench_pipeline` throughput line (printed to stdout and
/// grepped into the CI job summary): measured samples/sec plus the delta
/// against the recorded baseline when one is present.
pub fn bench_throughput_line(label: &str, rate: f64, baseline: Option<f64>) -> String {
    let mut line = format!("bench throughput [{label}]: {rate:.0} samples/sec");
    if let Some(base) = baseline.filter(|b| *b > 0.0) {
        let delta = (rate - base) / base * 100.0;
        line.push_str(&format!(" ({delta:+.1}% vs recorded baseline {base:.0}/sec)"));
    }
    line
}

/// Formats the prefilter summary line the CI smoke run prints and appends
/// to the job summary: how many sampled (template, table) attempts the
/// schema analyzers proved infeasible before instantiation, aggregated
/// over the named runs. Informative only — the hit rate depends on the
/// corpus mix, so the gate never fails on it.
pub fn prefilter_line(reports: &[(String, PipelineReport)]) -> String {
    let prefiltered: u64 = reports.iter().map(|(_, r)| r.prefiltered()).sum();
    let attempted: u64 =
        reports.iter().flat_map(|(_, r)| r.kinds.iter().map(|k| k.attempted)).sum();
    let rate = if attempted == 0 { 0.0 } else { prefiltered as f64 / attempted as f64 * 100.0 };
    format!(
        "prefilter hit rate: {rate:.1}% ({prefiltered} of {attempted} program attempts skipped statically)"
    )
}

/// Runs every report against the floor, printing per-run verdicts; returns
/// `false` (CI failure) if any run is under the floor.
pub fn check_floor(floor: &AcceptanceFloor, reports: &[(String, PipelineReport)]) -> bool {
    let mut ok = true;
    for (name, report) in reports {
        match floor.check(name, report) {
            Ok(()) => println!(
                "floor OK   {name}: rate {:.1}% >= {:.1}%, accepted {} >= {}",
                report.acceptance_rate() * 100.0,
                floor.min_acceptance_rate * 100.0,
                report.accepted(),
                floor.min_accepted
            ),
            Err(msg) => {
                println!("floor FAIL {msg}");
                ok = false;
            }
        }
    }
    ok
}

// ---------------------------------------------------------------------------
// Output formatting.
// ---------------------------------------------------------------------------

/// Prints a formatted results table with a title.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        line(row);
    }
}

/// Formats a plain metric.
pub fn fmt(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use uctr::Label;

    fn t() -> Table {
        Table::from_strings("t", &[vec!["a", "b"], vec!["x", "1"], vec!["y", "2"]]).unwrap()
    }

    #[test]
    fn few_shot_is_deterministic_subset() {
        let train: Vec<Sample> = (0..100).map(|i| Sample::qa(t(), format!("q{i}"), "1")).collect();
        let a = few_shot(&train, 50);
        let b = few_shot(&train, 50);
        assert_eq!(a.len(), 50);
        assert_eq!(
            a.iter().map(|s| &s.text).collect::<Vec<_>>(),
            b.iter().map(|s| &s.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn restrict_views() {
        let mut s = Sample::qa(t(), "q", "1");
        s.context = vec!["ctx".into()];
        let table_only = restrict(&s, EvidenceView::TableOnly);
        assert!(table_only.context.is_empty());
        assert_eq!(table_only.table.n_rows(), 2);
        let text_only = restrict(&s, EvidenceView::SentenceOnly);
        assert_eq!(text_only.table.n_rows(), 0);
        assert_eq!(text_only.context.len(), 1);
    }

    #[test]
    fn qa_breakdown_has_four_rows() {
        let samples = vec![Sample::qa(t(), "what is the b of x?", "1")];
        let model = QaModel::untrained();
        let rows = qa_breakdown(&model, &samples);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].0, "Total");
    }

    #[test]
    fn verifier_micro_f1_runs() {
        let samples = vec![Sample::verification(t(), "b of x is 1.", uctr::Verdict::Supported)];
        let model = VerifierModel::train(&samples, VerdictSpace::TwoWay, EvidenceView::Full);
        let f1 = verifier_micro_f1(&model, &samples);
        assert!((0.0..=100.0).contains(&f1));
    }

    #[test]
    fn augment_union_balances_gold() {
        let synth: Vec<Sample> = (0..100).map(|i| Sample::qa(t(), format!("s{i}"), "1")).collect();
        let gold: Vec<Sample> = (0..10).map(|i| Sample::qa(t(), format!("g{i}"), "1")).collect();
        let union = augment_union(&synth, &gold);
        // gold replicated 10x -> 100 synthetic + 100 gold copies
        assert_eq!(union.len(), 200);
        let gold_count = union.iter().filter(|s| s.text.starts_with('g')).count();
        assert_eq!(gold_count, 100);
        // When gold is already large, it enters once.
        let big_gold: Vec<Sample> =
            (0..200).map(|i| Sample::qa(t(), format!("g{i}"), "1")).collect();
        assert_eq!(augment_union(&synth, &big_gold).len(), 300);
    }

    /// A floor with only the funnel fields: every `bench_*` gate lacks
    /// its keys.
    fn bare_floor() -> AcceptanceFloor {
        AcceptanceFloor::parse(r#"{"min_acceptance_rate": 0.5, "min_accepted": 10}"#)
            .expect("bare floor parses")
    }

    #[test]
    fn acceptance_floor_requires_the_funnel_fields() {
        assert_eq!(bare_floor().min_accepted, 10);
        assert!(AcceptanceFloor::parse(r#"{"min_accepted": 10}"#).is_err());
    }

    #[test]
    fn bench_throughput_ratchet_is_one_sided() {
        // No baselines or margin: the gate fails and names a missing key.
        let err = bare_floor().check_bench_throughput(1.0, 1.0, 1.0).unwrap_err();
        assert!(err.contains("`bench_max_throughput_regression`"), "{err}");
        let mut floor = bare_floor();
        floor.bench_max_throughput_regression = Some(0.15);
        floor.bench_single_thread_samples_per_sec = Some(1000.0);
        floor.bench_saturated_samples_per_sec = Some(4000.0);
        // A committed margin without the stress baseline still fails.
        let err = floor.check_bench_throughput(1000.0, 4000.0, 200.0).unwrap_err();
        assert!(err.contains("`bench_stress_samples_per_sec`"), "{err}");
        floor.bench_stress_samples_per_sec = Some(200.0);
        // Within the 15% margin (and faster) passes.
        assert!(floor.check_bench_throughput(900.0, 4000.0, 200.0).is_ok());
        assert!(floor.check_bench_throughput(5000.0, 9000.0, 900.0).is_ok());
        // More than 15% below any baseline fails.
        let err = floor.check_bench_throughput(1000.0, 3000.0, 200.0).unwrap_err();
        assert!(err.contains("saturated"), "{err}");
        assert!(floor.check_bench_throughput(500.0, 4000.0, 200.0).is_err());
        assert!(floor.check_bench_throughput(1000.0, 4000.0, 190.0).is_ok());
        let err = floor.check_bench_throughput(1000.0, 4000.0, 100.0).unwrap_err();
        assert!(err.contains("stress"), "{err}");
        // A tighter committed margin tightens the gate.
        floor.bench_max_throughput_regression = Some(0.05);
        assert!(floor.check_bench_throughput(900.0, 4000.0, 200.0).is_err());
        // A non-positive baseline is no baseline.
        floor.bench_single_thread_samples_per_sec = Some(0.0);
        let err = floor.check_bench_throughput(1000.0, 4000.0, 200.0).unwrap_err();
        assert!(err.contains("`bench_single_thread_samples_per_sec`"), "{err}");
    }

    #[test]
    fn mined_gap_gate_is_relative_and_required() {
        let mut floor = bare_floor();
        let err = floor.check_mined_gap(1000.0, 1000.0).unwrap_err();
        assert!(err.contains("`bench_mined_max_gap`"), "{err}");
        floor.bench_mined_max_gap = Some(0.25);
        assert!(floor.check_mined_gap(750.0, 1000.0).is_ok());
        assert!(floor.check_mined_gap(2000.0, 1000.0).is_ok());
        let err = floor.check_mined_gap(700.0, 1000.0).unwrap_err();
        assert!(err.contains("mined-bank"), "{err}");
    }

    #[test]
    fn bench_floor_fields_parse() {
        let f = AcceptanceFloor::parse(
            r#"{"min_acceptance_rate": 0.5, "min_accepted": 10,
                "bench_single_thread_samples_per_sec": 1200.0,
                "bench_saturated_samples_per_sec": 4400.0,
                "bench_stress_samples_per_sec": 250.0,
                "bench_max_throughput_regression": 0.15}"#,
        )
        .expect("floor with bench baselines parses");
        assert_eq!(f.bench_single_thread_samples_per_sec, Some(1200.0));
        assert_eq!(f.bench_saturated_samples_per_sec, Some(4400.0));
        assert_eq!(f.bench_stress_samples_per_sec, Some(250.0));
        assert_eq!(f.bench_max_throughput_regression, Some(0.15));
    }

    #[test]
    fn serving_gate_is_one_sided_in_both_metrics() {
        let mut floor = bare_floor();
        // No baselines recorded: the gate fails and names a missing key.
        assert!(floor.check_serving(1.0, 1e9).is_err());
        floor.bench_max_throughput_regression = Some(0.15);
        floor.bench_serving_samples_per_sec = Some(1000.0);
        floor.bench_serving_max_p99_regression = Some(1.0);
        let err = floor.check_serving(2000.0, 1.0).unwrap_err();
        assert!(err.contains("`bench_serving_p99_ms`"), "{err}");
        floor.bench_serving_p99_ms = Some(10.0);
        // Faster and lower-latency than baseline: passes.
        assert!(floor.check_serving(2000.0, 1.0).is_ok());
        // Within the margins (15% throughput, 2× p99): passes.
        assert!(floor.check_serving(900.0, 19.0).is_ok());
        // Throughput collapse fails.
        let err = floor.check_serving(500.0, 1.0).unwrap_err();
        assert!(err.contains("serving throughput"), "{err}");
        // Tail blowup fails.
        let err = floor.check_serving(2000.0, 25.0).unwrap_err();
        assert!(err.contains("p99"), "{err}");
        // Tightened headroom bites sooner.
        floor.bench_serving_max_p99_regression = Some(0.1);
        assert!(floor.check_serving(2000.0, 12.0).is_err());
    }

    #[test]
    fn alloc_ceiling_has_no_noise_margin() {
        let mut floor = bare_floor();
        let err = floor.check_bench_allocs(1.0).unwrap_err();
        assert!(err.contains("`bench_max_allocs_per_sample`"), "no ceiling recorded: {err}");
        floor.bench_max_allocs_per_sample = Some(95.0);
        assert!(floor.check_bench_allocs(95.0).is_ok());
        assert!(floor.check_bench_allocs(40.0).is_ok());
        let err = floor.check_bench_allocs(95.1).unwrap_err();
        assert!(err.contains("ceiling"), "{err}");
    }

    #[test]
    fn serving_floor_fields_parse() {
        let f = AcceptanceFloor::parse(
            r#"{"min_acceptance_rate": 0.5, "min_accepted": 10,
                "bench_serving_samples_per_sec": 5000.0,
                "bench_serving_p99_ms": 12.5,
                "bench_serving_max_p99_regression": 0.5,
                "bench_mined_max_gap": 0.25,
                "bench_max_allocs_per_sample": 95.0}"#,
        )
        .unwrap();
        assert_eq!(f.bench_serving_samples_per_sec, Some(5000.0));
        assert_eq!(f.bench_serving_p99_ms, Some(12.5));
        assert_eq!(f.bench_serving_max_p99_regression, Some(0.5));
        assert_eq!(f.bench_mined_max_gap, Some(0.25));
        assert_eq!(f.bench_max_allocs_per_sample, Some(95.0));
    }

    #[test]
    fn bench_throughput_line_formats_delta() {
        let line = bench_throughput_line("saturated", 130.0, Some(100.0));
        assert!(line.starts_with("bench throughput [saturated]: 130 samples/sec"), "{line}");
        assert!(line.contains("+30.0%"), "{line}");
        assert!(!bench_throughput_line("single-thread", 130.0, None).contains('%'));
    }

    #[test]
    fn prefilter_line_aggregates_over_runs() {
        let report = |pre: u64, att: u64| PipelineReport {
            threads: 1,
            inputs_total: 1,
            inputs_degenerate: 0,
            unknown_injected: 0,
            kinds: vec![uctr::KindReport {
                kind: "sql".into(),
                attempted: att,
                prefiltered: pre,
                instantiated: att - pre,
                executed: att - pre,
                accepted: att - pre,
                discards: Vec::new(),
            }],
            sources: Vec::new(),
            workers: Vec::new(),
            timings: Vec::new(),
        };
        let runs = vec![("a".to_string(), report(1, 4)), ("b".to_string(), report(2, 8))];
        let line = prefilter_line(&runs);
        assert!(line.starts_with("prefilter hit rate: 25.0%"), "{line}");
        assert!(line.contains("3 of 12"), "{line}");
        let empty = prefilter_line(&[]);
        assert!(empty.starts_with("prefilter hit rate: 0.0%"), "{empty}");
    }

    #[test]
    fn qa_em_f1_skips_verdict_samples() {
        let mut s = Sample::qa(t(), "q", "1");
        s.label = Label::Verdict(uctr::Verdict::Supported);
        let (em, f1) = qa_em_f1(&QaModel::untrained(), &[s]);
        assert_eq!((em, f1), (0.0, 0.0));
    }
}
