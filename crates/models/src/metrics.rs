//! Evaluation metrics for all four benchmarks (paper §V-A).
//!
//! * TAT-QA: Exact Match and the numeracy-focused token F1;
//! * WikiSQL: denotation accuracy;
//! * FEVEROUS: label accuracy and the FEVEROUS score (label correct *and*
//!   retrieved evidence covers the gold evidence set);
//! * SEM-TAB-FACTS: 3-way micro F1.

use tabular::text::{normalize_answer, token_f1, tokenize};
use uctr::{Sample, Verdict};

/// Exact match after normalization (articles dropped, numbers canonical).
pub fn exact_match(pred: &str, gold: &str) -> bool {
    let p = normalize_answer(pred);
    let g = normalize_answer(gold);
    if p == g {
        return true;
    }
    // Numeric tolerance: "−0.2" vs "-0.200001" style float noise.
    if let (Ok(a), Ok(b)) = (p.parse::<f64>(), g.parse::<f64>()) {
        return tabular::nearly_equal(a, b)
            || (a - b).abs() <= 0.005 * a.abs().max(b.abs()).max(1e-9);
    }
    false
}

/// Numeracy-focused F1: exact for numbers, token F1 for text answers.
pub fn numeracy_f1(pred: &str, gold: &str) -> f64 {
    let p = normalize_answer(pred);
    let g = normalize_answer(gold);
    if let (Ok(a), Ok(b)) = (p.parse::<f64>(), g.parse::<f64>()) {
        return if tabular::nearly_equal(a, b)
            || (a - b).abs() <= 0.005 * a.abs().max(b.abs()).max(1e-9)
        {
            1.0
        } else {
            0.0
        };
    }
    token_f1(&tokenize(&p), &tokenize(&g))
}

/// Mean EM and F1 of (pred, gold) pairs, as percentages.
pub fn em_f1(pairs: &[(String, String)]) -> (f64, f64) {
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    let em = pairs.iter().filter(|(p, g)| exact_match(p, g)).count() as f64 / pairs.len() as f64;
    let f1 = pairs.iter().map(|(p, g)| numeracy_f1(p, g)).sum::<f64>() / pairs.len() as f64;
    (100.0 * em, 100.0 * f1)
}

/// Denotation accuracy (WikiSQL): EM on the answer string.
pub fn denotation_accuracy(pairs: &[(String, String)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    100.0 * pairs.iter().filter(|(p, g)| exact_match(p, g)).count() as f64 / pairs.len() as f64
}

/// Label accuracy for verdicts, as a percentage.
pub fn label_accuracy(pairs: &[(Verdict, Verdict)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    100.0 * pairs.iter().filter(|(p, g)| p == g).count() as f64 / pairs.len() as f64
}

/// 3-way micro F1 (for single-label multiclass prediction, micro F1 equals
/// accuracy; reported under the benchmark's metric name).
pub fn micro_f1(pairs: &[(Verdict, Verdict)]) -> f64 {
    label_accuracy(pairs)
}

// ---------------------------------------------------------------------------
// FEVEROUS score: retrieval + verdict.
// ---------------------------------------------------------------------------

pub use crate::retriever::{gold_evidence_cells, retrieve_cells};

/// FEVEROUS score: fraction of samples where the verdict is correct AND the
/// retrieved evidence covers the gold evidence cells, as a percentage.
pub fn feverous_score(samples: &[Sample], predictions: &[Verdict]) -> f64 {
    assert_eq!(samples.len(), predictions.len());
    if samples.is_empty() {
        return 0.0;
    }
    let mut ok = 0usize;
    for (s, pred) in samples.iter().zip(predictions) {
        let gold_label = s.label.as_verdict();
        if gold_label != Some(*pred) {
            continue;
        }
        let gold = gold_evidence_cells(s);
        let retrieved = retrieve_cells(s);
        // Text-evidence samples: the retriever must simply not hallucinate
        // table evidence; treat empty gold as covered.
        let covered = gold.iter().all(|c| retrieved.contains(c));
        if covered {
            ok += 1;
        }
    }
    100.0 * ok as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Table;
    use uctr::{Label, ProgramKind};

    #[test]
    fn exact_match_normalization() {
        assert!(exact_match("The Defense", "defense"));
        assert!(exact_match("5.0", "5"));
        assert!(exact_match("-0.2", "-0.2000004"));
        assert!(!exact_match("Commerce", "Defense"));
        // Zero-sign and trailing-dot forms collapse (tabular::text pins the
        // token-level cases; this pins metric-level agreement).
        assert!(exact_match("-0", "0"));
        assert!(exact_match("-0.00001", "0"));
        assert!(exact_match("It was 42.", "it was 42"));
    }

    #[test]
    fn numeracy_f1_numbers_are_all_or_nothing() {
        assert_eq!(numeracy_f1("5", "5.0"), 1.0);
        assert_eq!(numeracy_f1("5", "6"), 0.0);
        let f = numeracy_f1("the quick fox", "quick brown fox");
        assert!(f > 0.5 && f < 1.0);
    }

    #[test]
    fn em_f1_aggregation() {
        let pairs =
            vec![("5".to_string(), "5".to_string()), ("x b".to_string(), "x c".to_string())];
        let (em, f1) = em_f1(&pairs);
        assert_eq!(em, 50.0);
        assert!(f1 > 50.0 && f1 < 100.0);
    }

    #[test]
    fn label_accuracy_and_micro_f1() {
        let pairs = vec![
            (Verdict::Supported, Verdict::Supported),
            (Verdict::Refuted, Verdict::Supported),
            (Verdict::Unknown, Verdict::Unknown),
        ];
        assert!((label_accuracy(&pairs) - 66.666).abs() < 0.1);
        assert_eq!(micro_f1(&pairs), label_accuracy(&pairs));
    }

    fn sample_with_program() -> Result<Sample, tabular::TableError> {
        let t = Table::from_strings(
            "Printers",
            &[vec!["model", "speed"], vec!["P100", "60"], vec!["P300", "95"]],
        )?;
        let mut s = Sample::verification(t, "P300 has the highest speed.", Verdict::Supported);
        s.program =
            ProgramKind::Logic("eq { hop { argmax { all_rows ; speed } ; model } ; P300 }".into());
        Ok(s)
    }

    #[test]
    fn gold_evidence_from_program() -> Result<(), Box<dyn std::error::Error>> {
        let s = sample_with_program()?;
        let cells = gold_evidence_cells(&s);
        assert!(cells.contains(&(1, 0)), "{cells:?}"); // P300's model cell
        assert!(cells.contains(&(0, 1)), "{cells:?}"); // speed column scanned
        Ok(())
    }

    #[test]
    fn retriever_finds_mentioned_cells() -> Result<(), Box<dyn std::error::Error>> {
        let s = sample_with_program()?;
        let retrieved = retrieve_cells(&s);
        assert!(retrieved.contains(&(1, 0)), "{retrieved:?}");
        Ok(())
    }

    #[test]
    fn feverous_score_requires_both() -> Result<(), Box<dyn std::error::Error>> {
        let s = sample_with_program()?;
        let right = feverous_score(std::slice::from_ref(&s), &[Verdict::Supported]);
        let wrong = feverous_score(&[s], &[Verdict::Refuted]);
        assert!(right >= wrong);
        assert_eq!(wrong, 0.0);
        Ok(())
    }

    #[test]
    fn feverous_score_is_at_most_label_accuracy() -> Result<(), Box<dyn std::error::Error>> {
        let s = sample_with_program()?;
        let mut s2 = s.clone();
        s2.label = Label::Verdict(Verdict::Refuted);
        let samples = vec![s, s2];
        let preds = vec![Verdict::Supported, Verdict::Refuted];
        let fs = feverous_score(&samples, &preds);
        let acc = label_accuracy(&[
            (Verdict::Supported, Verdict::Supported),
            (Verdict::Refuted, Verdict::Refuted),
        ]);
        assert!(fs <= acc);
        Ok(())
    }
}
