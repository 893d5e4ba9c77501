//! Synthetic stand-ins for the four evaluation benchmarks (paper §V-A,
//! Table II): FEVEROUS, TAT-QA, WikiSQL and SEM-TAB-FACTS.
//!
//! Each generator produces a [`Benchmark`]: gold train/dev/test splits
//! annotated by the [`crate::annotator`] simulator, plus the *unlabeled*
//! tables-with-context that UCTR is allowed to see (the paper uses the
//! original datasets' tables for synthesis, §V-B). Evidence-type, label and
//! answer-type proportions follow Table II.

use crate::annotator::{
    gold_bank, gold_qa_arith, gold_qa_sql, gold_qa_sql_for_topic, gold_text_only,
    gold_verification, into_table_text,
};
use crate::vocab::{self, TOPICS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tabular::Table;
use textops::describe_row;
use uctr::{Dataset, EvidenceType, Label, Sample, TableWithContext, Verdict};

/// A benchmark: gold splits + the unlabeled synthesis inputs.
#[derive(Debug, Clone)]
pub struct Benchmark {
    pub gold: Dataset,
    pub unlabeled: Vec<TableWithContext>,
}

/// Generation scale. The defaults are sized so every experiment binary
/// trains in seconds on a laptop while leaving enough data for the learned
/// models to show the paper's trends.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    pub n_tables: usize,
    /// Gold samples attempted per table for the train split.
    pub train_per_table: usize,
    /// Gold samples attempted per table for dev and test tables (each).
    pub eval_per_table: usize,
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig { n_tables: 120, train_per_table: 10, eval_per_table: 16, seed: 2023 }
    }
}

impl CorpusConfig {
    /// A miniature configuration for unit tests.
    pub fn tiny() -> CorpusConfig {
        CorpusConfig { n_tables: 40, train_per_table: 4, eval_per_table: 4, seed: 7 }
    }
}

/// Split assignment by table: like the real benchmarks, train/dev/test use
/// DISJOINT tables (75% / 12.5% / 12.5%). Tables are assigned in blocks of
/// five — one full topic cycle — so every topic appears in every split.
fn split_of(table_index: usize) -> usize {
    match (table_index / 5) % 8 {
        0..=5 => 0,
        6 => 1,
        _ => 2,
    }
}

fn push_split(d: &mut Dataset, split: usize, s: Sample) {
    match split {
        0 => d.train.push(s),
        1 => d.dev.push(s),
        _ => d.test.push(s),
    }
}

/// WikiSQL-like: general-domain QA over tables only, topic-tagged.
pub fn wikisql_like(cfg: CorpusConfig) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let bank = gold_bank();
    let mut gold = Dataset::new("wikisql-like");
    let mut unlabeled = Vec::with_capacity(cfg.n_tables);
    for i in 0..cfg.n_tables {
        let topic = TOPICS[i % TOPICS.len()];
        let table = vocab::wiki_table(topic, &mut rng);
        let split = split_of(i);
        if split == 0 {
            // Only train-split tables are visible to the unsupervised
            // pipeline (no test-table leakage).
            unlabeled.push(TableWithContext {
                table: table.clone().into(),
                paragraph: None,
                topic: topic.to_string(),
            });
        }
        let budget = if split == 0 { cfg.train_per_table } else { cfg.eval_per_table };
        for _ in 0..budget {
            if let Some(mut s) = gold_qa_sql_for_topic(&table, &bank, topic, &mut rng) {
                s.topic = topic.to_string();
                push_split(&mut gold, split, s);
            }
        }
    }
    Benchmark { gold, unlabeled }
}

/// FEVEROUS-like: general-domain fact verification over tables + text,
/// mostly Supported/Refuted with a small NEI slice (paper: NEI is tiny and
/// is dropped at training time, following Malon \[35\]).
pub fn feverous_like(cfg: CorpusConfig) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let bank = gold_bank();
    let mut gold = Dataset::new("feverous-like");
    let mut unlabeled = Vec::with_capacity(cfg.n_tables);
    for i in 0..cfg.n_tables {
        let topic = TOPICS[i % TOPICS.len()];
        let table = vocab::wiki_table(topic, &mut rng);
        let paragraph = vocab::surrounding_text(&table, &mut rng);
        let split = split_of(i);
        if split == 0 {
            unlabeled.push(TableWithContext {
                table: table.clone().into(),
                paragraph: Some(paragraph.clone()),
                topic: topic.to_string(),
            });
        }
        let budget = if split == 0 { cfg.train_per_table } else { cfg.eval_per_table };
        for _ in 0..budget {
            // Evidence mix per Table II: ~40% sentence, ~33% table, ~28%
            // combined.
            let roll: f64 = rng.gen();
            let sample = if roll < 0.40 {
                text_verification(&table, &mut rng)
            } else if roll < 0.73 {
                gold_verification(&table, &bank, &mut rng)
            } else {
                gold_verification(&table, &bank, &mut rng)
                    .and_then(|s| into_table_text(s, &mut rng))
            };
            if let Some(mut s) = sample {
                s.topic = topic.to_string();
                push_split(&mut gold, split, s);
            }
        }
    }
    // NEI slice (~5%): claims paired with mismatched evidence.
    inject_unknowns(&mut gold, 0.05, &mut rng);
    Benchmark { gold, unlabeled }
}

/// TAT-QA-like: financial QA over tables + text with the Table II answer
/// mix (Span ≈ 55%, Arithmetic ≈ 42%, Counting ≈ 3%) and evidence mix.
pub fn tatqa_like(cfg: CorpusConfig) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(2));
    let bank = gold_bank();
    let mut gold = Dataset::new("tatqa-like");
    let mut unlabeled = Vec::with_capacity(cfg.n_tables);
    for i in 0..cfg.n_tables {
        let table = vocab::finance_table(&mut rng);
        let paragraph = vocab::surrounding_text(&table, &mut rng);
        let split = split_of(i);
        if split == 0 {
            unlabeled.push(TableWithContext {
                table: table.clone().into(),
                paragraph: Some(paragraph.clone()),
                topic: "finance".to_string(),
            });
        }
        let budget = if split == 0 { cfg.train_per_table } else { cfg.eval_per_table };
        for _ in 0..budget {
            let roll: f64 = rng.gen();
            // Answer-type mix drives program choice.
            let base = if roll < 0.44 {
                gold_qa_arith(&table, &bank, &mut rng)
            } else {
                gold_qa_sql(&table, &bank, &mut rng)
            };
            let Some(sample) = base else { continue };
            // Evidence mix: table ≈ 45%, combined ≈ 31%, text ≈ 24%.
            let eroll: f64 = rng.gen();
            let finished = if eroll < 0.45 {
                Some(sample)
            } else if eroll < 0.76 {
                into_table_text(sample, &mut rng)
            } else {
                gold_text_only(&table, &mut rng)
            };
            if let Some(mut s) = finished {
                s.topic = "finance".to_string();
                push_split(&mut gold, split, s);
            }
        }
    }
    Benchmark { gold, unlabeled }
}

/// SEM-TAB-FACTS-like: scientific fact verification, 3-way labels with a
/// small Unknown slice (224 / 5715 ≈ 4% in the original).
pub fn semtab_like(cfg: CorpusConfig) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(3));
    let bank = gold_bank();
    let mut gold = Dataset::new("semtabfacts-like");
    let mut unlabeled = Vec::with_capacity(cfg.n_tables);
    for i in 0..cfg.n_tables {
        let table = vocab::science_table(&mut rng);
        let split = split_of(i);
        if split == 0 {
            unlabeled.push(TableWithContext {
                table: table.clone().into(),
                paragraph: None,
                topic: "science".to_string(),
            });
        }
        let budget = if split == 0 { cfg.train_per_table } else { cfg.eval_per_table };
        for _ in 0..budget {
            if let Some(mut s) = gold_verification(&table, &bank, &mut rng) {
                s.topic = "science".to_string();
                push_split(&mut gold, split, s);
            }
        }
    }
    inject_unknowns(&mut gold, 0.06, &mut rng);
    Benchmark { gold, unlabeled }
}

/// A verification sample whose evidence is a sentence (no table rows).
fn text_verification(table: &Table, rng: &mut StdRng) -> Option<Sample> {
    let row = rng.gen_range(0..table.n_rows());
    let sentence = describe_row(table, row, rng)?;
    let ecol = table.entity_column();
    let entity = table.cell(row, ecol).filter(|v| !v.is_null())?.to_string();
    let cols: Vec<usize> = (0..table.n_cols())
        .filter(|&c| c != ecol && table.cell(row, c).is_some_and(|v| !v.is_null()))
        .collect();
    let &col = cols.choose(rng)?;
    let col_name = table.column_name(col)?;
    let value = table.cell(row, col)?.to_string();
    let supported = rng.gen_bool(0.5);
    let (claim_value, verdict) = if supported {
        (value.clone(), Verdict::Supported)
    } else {
        let alternatives: Vec<String> = table
            .column_values(col)
            .iter()
            .filter(|v| !v.is_null() && v.to_string() != value)
            .map(|v| v.to_string())
            .collect();
        (alternatives.choose(rng)?.clone(), Verdict::Refuted)
    };
    let empty = Table::from_strings(&table.title, &[vec![]]).ok()?;
    let mut s = Sample::verification(
        empty,
        format!("{entity} reports {claim_value} as its {col_name}."),
        verdict,
    );
    s.context = vec![sentence];
    s.evidence = EvidenceType::TextOnly;
    Some(s)
}

/// Relabels a random fraction of verification samples Unknown by swapping
/// in evidence from a different sample.
fn inject_unknowns(d: &mut Dataset, rate: f64, rng: &mut StdRng) {
    for split in [&mut d.train, &mut d.dev, &mut d.test] {
        let n = split.len();
        if n < 2 {
            continue;
        }
        for i in 0..n {
            if !rng.gen_bool(rate) {
                continue;
            }
            let j = rng.gen_range(0..n - 1);
            let j = if j >= i { j + 1 } else { j };
            if split[j].table.title == split[i].table.title && split[j].table == split[i].table {
                continue;
            }
            let (table, context, evidence) =
                (split[j].table.clone(), split[j].context.clone(), split[j].evidence);
            split[i].table = table;
            split[i].context = context;
            split[i].evidence = evidence;
            split[i].label = Label::Verdict(Verdict::Unknown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uctr::AnswerKind;

    #[test]
    fn wikisql_like_structure() {
        let b = wikisql_like(CorpusConfig::tiny());
        assert!(!b.gold.train.is_empty());
        assert!(!b.gold.dev.is_empty());
        assert!(!b.gold.test.is_empty());
        assert_eq!(b.unlabeled.len(), 30); // 75% of 40 tables
                                           // All QA, all table-only.
        for s in &b.gold.train {
            assert!(s.label.as_answer().is_some());
            assert_eq!(s.evidence, EvidenceType::TableOnly);
            assert!(!s.topic.is_empty());
        }
    }

    #[test]
    fn wikisql_topics_are_diverse() {
        let b = wikisql_like(CorpusConfig::tiny());
        let mut topics: Vec<&str> = b.gold.train.iter().map(|s| s.topic.as_str()).collect();
        topics.sort_unstable();
        topics.dedup();
        assert!(topics.len() >= 4, "{topics:?}");
    }

    #[test]
    fn feverous_like_mixes_evidence() {
        let b = feverous_like(CorpusConfig::default());
        let counts = b.gold.evidence_counts();
        assert!(counts[0].1 > 0, "no table-only");
        assert!(counts[1].1 > 0, "no text-only");
        assert!(counts[2].1 > 0, "no combined");
        let verdicts = b.gold.verdict_counts();
        assert!(verdicts[0].1 > 0 && verdicts[1].1 > 0);
        // NEI small but present.
        let total = b.gold.len() as f64;
        assert!(verdicts[2].1 as f64 / total < 0.12);
    }

    #[test]
    fn tatqa_like_answer_mix() {
        let b = tatqa_like(CorpusConfig::default());
        let arith = b.gold.train.iter().filter(|s| s.answer_kind == AnswerKind::Arithmetic).count();
        let span = b.gold.train.iter().filter(|s| s.answer_kind == AnswerKind::Span).count();
        assert!(arith > 0 && span > 0);
        // Arithmetic should be a large minority (Table II: ~42%).
        let frac = arith as f64 / b.gold.train.len() as f64;
        assert!(frac > 0.2 && frac < 0.7, "arithmetic fraction {frac}");
    }

    #[test]
    fn semtab_like_three_way() {
        let b = semtab_like(CorpusConfig::default());
        let v = b.gold.verdict_counts();
        assert!(v[0].1 > 0 && v[1].1 > 0 && v[2].1 > 0, "{v:?}");
        assert!(v[2].1 < v[0].1 && v[2].1 < v[1].1, "Unknown must be the smallest: {v:?}");
    }

    #[test]
    fn unlabeled_matches_gold_tables() {
        let b = tatqa_like(CorpusConfig::tiny());
        assert_eq!(b.unlabeled.len(), 30); // train-split tables only
        assert!(b.unlabeled.iter().all(|u| u.paragraph.is_some()));
    }

    #[test]
    fn splits_use_disjoint_tables() {
        let b = wikisql_like(CorpusConfig::tiny());
        let titles = |ss: &[Sample]| -> std::collections::BTreeSet<String> {
            ss.iter().map(|s| format!("{}", s.table)).collect()
        };
        let train = titles(&b.gold.train);
        let dev = titles(&b.gold.dev);
        let test = titles(&b.gold.test);
        assert!(train.is_disjoint(&dev), "train/dev share tables");
        assert!(train.is_disjoint(&test), "train/test share tables");
        assert!(dev.is_disjoint(&test), "dev/test share tables");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = wikisql_like(CorpusConfig::tiny());
        let b = wikisql_like(CorpusConfig::tiny());
        assert_eq!(a.gold.train.len(), b.gold.train.len());
        for (x, y) in a.gold.train.iter().zip(&b.gold.train) {
            assert_eq!(x.text, y.text);
        }
    }

    #[test]
    fn text_only_answers_recoverable_from_sentence() {
        let b = feverous_like(CorpusConfig::tiny());
        for s in b.gold.train.iter().filter(|s| s.evidence == EvidenceType::TextOnly) {
            assert!(!s.context.is_empty());
            assert_eq!(s.table.n_rows(), 0);
        }
    }
}
