//! MQA-QG baseline reimplementation (Pan et al. \[38\]).
//!
//! The paper's closest prior work and the main unsupervised baseline in
//! Tables III–VI. MQA-QG finds a bridge entity connecting the table and
//! text, verbalizes the entity's row with `DescribeEnt`, and composes a
//! simple question/claim from the description. Its key deficiency (per the
//! paper) is that it "cannot integrate the information from multiple rows
//! using complex underlying logic" — every sample it produces involves a
//! single cell or a single row, which is exactly what this module
//! implements.

use crate::pipeline::{TableWithContext, TaskKind};
use crate::sample::{AnswerKind, EvidenceType, Label, ProgramKind, Sample, Verdict};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tabular::{Table, Value};
use textops::describe_row;

/// MQA-QG-style generator configuration.
#[derive(Debug, Clone)]
pub struct MqaQgConfig {
    pub task: TaskKind,
    pub samples_per_table: usize,
    pub seed: u64,
}

impl MqaQgConfig {
    pub fn qa() -> MqaQgConfig {
        MqaQgConfig { task: TaskKind::QuestionAnswering, samples_per_table: 10, seed: 29 }
    }

    pub fn verification() -> MqaQgConfig {
        MqaQgConfig { task: TaskKind::FactVerification, samples_per_table: 10, seed: 29 }
    }
}

/// Generates simple single-cell samples from tables (and bridge samples
/// when a paragraph is present).
pub fn generate_mqaqg(inputs: &[TableWithContext], config: &MqaQgConfig) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::new();
    for input in inputs {
        for _ in 0..config.samples_per_table {
            if let Some(mut s) =
                one_sample(&input.table, input.paragraph.as_deref(), config, &mut rng)
            {
                s.topic = input.topic.clone();
                out.push(s);
            }
        }
    }
    out
}

fn one_sample(
    table: &Table,
    paragraph: Option<&str>,
    config: &MqaQgConfig,
    rng: &mut StdRng,
) -> Option<Sample> {
    if table.n_rows() == 0 || table.n_cols() < 2 {
        return None;
    }
    // MQA-QG also generates from the textual side (its text→text and
    // text→table operators): a third of the samples verbalize a row into a
    // sentence and use it as the only evidence.
    if rng.gen_bool(1.0 / 3.0) {
        return text_sample(table, config, rng);
    }
    let ecol = table.entity_column();
    let row = rng.gen_range(0..table.n_rows());
    let entity = table.cell(row, ecol).filter(|v| !v.is_null())?.to_string();
    let cols: Vec<usize> = (0..table.n_cols())
        .filter(|&c| c != ecol && table.cell(row, c).is_some_and(|v| !v.is_null()))
        .collect();
    let &col = cols.choose(rng)?;
    let col_name = table.column_name(col)?.to_string();
    let value = table.cell(row, col)?.to_string();

    // Bridge mode: if the paragraph mentions the entity, the sample joins
    // the describing sentence and the table (MQA-QG's table+text hop).
    let bridge = paragraph
        .filter(|p| p.to_lowercase().contains(&entity.to_lowercase()))
        .map(tabular::text::split_sentences);

    match config.task {
        TaskKind::QuestionAnswering => {
            let text = match rng.gen_range(0..3) {
                0 => format!("What is the {col_name} of {entity}?"),
                1 => format!("What {col_name} does {entity} have?"),
                _ => format!("Which {col_name} is listed for {entity}?"),
            };
            let (evidence, context) = match bridge {
                Some(sents) => (EvidenceType::TableText, sents),
                None => (EvidenceType::TableOnly, Vec::new()),
            };
            Some(Sample {
                table: table.clone().into(),
                context,
                text,
                label: Label::Answer(value),
                evidence,
                program: ProgramKind::None,
                answer_kind: AnswerKind::Span,
                topic: String::new(),
            })
        }
        TaskKind::FactVerification => {
            // DescribeEnt the row, then claim one (possibly corrupted) fact.
            let _sentence = describe_row(table, row, rng)?;
            let supported = rng.gen_bool(0.5);
            let (claim_value, verdict) = if supported {
                (value.clone(), Verdict::Supported)
            } else {
                let alternatives: Vec<String> = table
                    .column_values(col)
                    .iter()
                    .filter(|v| !v.is_null() && v.to_string() != value)
                    .map(Value::to_string)
                    .collect();
                (alternatives.choose(rng)?.clone(), Verdict::Refuted)
            };
            let text = match rng.gen_range(0..2) {
                0 => format!("{entity} has a {col_name} of {claim_value}."),
                _ => format!("The {col_name} of {entity} is {claim_value}."),
            };
            let (evidence, context) = match bridge {
                Some(sents) => (EvidenceType::TableText, sents),
                None => (EvidenceType::TableOnly, Vec::new()),
            };
            Some(Sample {
                table: table.clone().into(),
                context,
                text,
                label: Label::Verdict(verdict),
                evidence,
                program: ProgramKind::None,
                answer_kind: AnswerKind::NotApplicable,
                topic: String::new(),
            })
        }
    }
}

/// A text-evidence sample: one row verbalized into a sentence, with a
/// lookup question or single-fact claim about it.
fn text_sample(table: &Table, config: &MqaQgConfig, rng: &mut StdRng) -> Option<Sample> {
    let row = rng.gen_range(0..table.n_rows());
    let sentence = describe_row(table, row, rng)?;
    let ecol = table.entity_column();
    let entity = table.cell(row, ecol).filter(|v| !v.is_null())?.to_string();
    let cols: Vec<usize> = (0..table.n_cols())
        .filter(|&c| c != ecol && table.cell(row, c).is_some_and(|v| !v.is_null()))
        .collect();
    let &col = cols.choose(rng)?;
    let col_name = table.column_name(col)?.to_string();
    let value = table.cell(row, col)?.to_string();
    let empty = Table::from_strings(&table.title, &[vec![]]).ok()?;
    match config.task {
        TaskKind::QuestionAnswering => Some(Sample {
            table: empty.clone().into(),
            context: vec![sentence],
            text: format!("What is the {col_name} of {entity}?"),
            label: Label::Answer(value),
            evidence: EvidenceType::TextOnly,
            program: ProgramKind::None,
            answer_kind: AnswerKind::Span,
            topic: String::new(),
        }),
        TaskKind::FactVerification => {
            let supported = rng.gen_bool(0.5);
            let (claim_value, verdict) = if supported {
                (value.clone(), Verdict::Supported)
            } else {
                let alternatives: Vec<String> = table
                    .column_values(col)
                    .iter()
                    .filter(|v| !v.is_null() && v.to_string() != value)
                    .map(Value::to_string)
                    .collect();
                (alternatives.choose(rng)?.clone(), Verdict::Refuted)
            };
            Some(Sample {
                table: empty.clone().into(),
                context: vec![sentence],
                text: format!("{entity} has a {col_name} of {claim_value}."),
                label: Label::Verdict(verdict),
                evidence: EvidenceType::TextOnly,
                program: ProgramKind::None,
                answer_kind: AnswerKind::NotApplicable,
                topic: String::new(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TableWithContext;

    fn inputs() -> Vec<TableWithContext> {
        let t = Table::from_strings(
            "Teams",
            &[vec!["team", "points", "wins"], vec!["Reds", "77", "21"], vec!["Blues", "64", "18"]],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        vec![TableWithContext {
            table: t.into(),
            paragraph: Some("The Reds were founded in 1910 in Oslo.".to_string()),
            topic: "sports".into(),
        }]
    }

    #[test]
    fn qa_samples_are_single_cell_lookups() {
        let samples = generate_mqaqg(&inputs(), &MqaQgConfig::qa());
        assert!(!samples.is_empty());
        for s in &samples {
            let ans = s.label.as_answer().unwrap_or_else(|| panic!("qa label"));
            assert!(!ans.is_empty());
            match s.evidence {
                // Table samples: the answer is a cell of the table.
                EvidenceType::TableOnly | EvidenceType::TableText => {
                    let found = s.table.rows().iter().flatten().any(|v| v.to_string() == ans);
                    assert!(found, "answer {ans} not a table cell");
                }
                // Text samples: the answer appears in the sentence.
                EvidenceType::TextOnly => {
                    assert!(s.context[0].contains(ans), "answer {ans} not in sentence");
                }
            }
        }
    }

    #[test]
    fn text_samples_generated() {
        // Text samples are drawn with probability 1/3; use enough draws that
        // their absence would be a real bug, not seed luck.
        let cfg = MqaQgConfig { samples_per_table: 40, ..MqaQgConfig::qa() };
        let samples = generate_mqaqg(&inputs(), &cfg);
        assert!(samples.iter().any(|s| s.evidence == EvidenceType::TextOnly));
    }

    #[test]
    fn verification_samples_have_both_verdicts() {
        let samples = generate_mqaqg(&inputs(), &MqaQgConfig::verification());
        let sup =
            samples.iter().filter(|s| s.label.as_verdict() == Some(Verdict::Supported)).count();
        let refuted =
            samples.iter().filter(|s| s.label.as_verdict() == Some(Verdict::Refuted)).count();
        assert!(sup > 0 && refuted > 0, "sup={sup} ref={refuted}");
    }

    #[test]
    fn bridge_entity_creates_table_text_samples() {
        let samples = generate_mqaqg(&inputs(), &MqaQgConfig::qa());
        // The paragraph mentions "Reds", so Reds-row samples must bridge.
        assert!(samples
            .iter()
            .any(|s| s.evidence == EvidenceType::TableText && !s.context.is_empty()));
    }

    #[test]
    fn no_complex_programs() {
        let samples = generate_mqaqg(&inputs(), &MqaQgConfig::qa());
        assert!(samples.iter().all(|s| s.program == ProgramKind::None));
        assert!(samples.iter().all(|s| s.answer_kind == AnswerKind::Span));
    }
}
