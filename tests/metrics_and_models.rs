//! Integration tests for the model/metric layer against the generated
//! corpora: metric edge cases, retriever/FEVEROUS-score coupling, and the
//! few-shot recipe.

use models::{
    em_f1, exact_match, feverous_score, label_accuracy, numeracy_f1, EvidenceView, QaModel,
    TrainConfig, VerdictSpace, VerifierModel,
};
use uctr::{Sample, Verdict};

#[test]
fn metric_edge_cases() {
    // EM: normalization of articles, case, numbers.
    assert!(exact_match("The Red Lions", "red lions"));
    assert!(exact_match("42.0", "42"));
    assert!(!exact_match("", "42"));
    // numeracy F1: numbers all-or-nothing, text graded.
    assert_eq!(numeracy_f1("42", "43"), 0.0);
    assert_eq!(numeracy_f1("42", "42.0"), 1.0);
    assert!(numeracy_f1("red lions oslo", "red lions kyiv") > 0.0);
    // empty sets
    assert_eq!(em_f1(&[]), (0.0, 0.0));
    assert_eq!(label_accuracy(&[]), 0.0);
}

#[test]
fn feverous_score_never_exceeds_label_accuracy() {
    let b = corpora::feverous_like(corpora::CorpusConfig::tiny());
    let dev: Vec<Sample> = b
        .gold
        .dev
        .iter()
        .filter(|s| s.label.as_verdict() != Some(Verdict::Unknown))
        .cloned()
        .collect();
    let model = VerifierModel::train(&b.gold.train, VerdictSpace::TwoWay, EvidenceView::Full);
    let preds: Vec<Verdict> = dev.iter().map(|s| model.predict(s)).collect();
    let fs = feverous_score(&dev, &preds);
    let pairs: Vec<(Verdict, Verdict)> =
        preds.iter().zip(&dev).map(|(p, s)| (*p, s.label.as_verdict().unwrap())).collect();
    let acc = label_accuracy(&pairs);
    assert!(fs <= acc + 1e-9, "FEVEROUS score {fs} > accuracy {acc}");
}

#[test]
fn few_shot_plus_synthetic_at_least_few_shot() {
    let b = corpora::tatqa_like(corpora::CorpusConfig {
        n_tables: 80,
        train_per_table: 8,
        eval_per_table: 8,
        seed: 21,
    });
    let synth = uctr::UctrPipeline::new(uctr::UctrConfig::qa()).generate(&b.unlabeled);
    let shots: Vec<Sample> = b.gold.train.iter().take(50).cloned().collect();
    let few_only = QaModel::train(&shots);
    let mut pretrained = QaModel::train(&synth);
    pretrained.fine_tune(&shots, TrainConfig { epochs: 4, ..TrainConfig::default() });
    let em = |m: &QaModel| {
        b.gold
            .dev
            .iter()
            .filter(|s| {
                tabular::text::normalize_answer(&m.predict(s))
                    == tabular::text::normalize_answer(s.label.as_answer().unwrap())
            })
            .count() as f64
            / b.gold.dev.len() as f64
    };
    let with_synth = em(&pretrained);
    let without = em(&few_only);
    assert!(
        with_synth + 0.03 >= without,
        "pretraining hurt badly: {with_synth:.3} vs {without:.3}"
    );
}

#[test]
fn verifier_handles_all_three_verdicts() {
    let b = corpora::semtab_like(corpora::CorpusConfig {
        n_tables: 80,
        train_per_table: 8,
        eval_per_table: 8,
        seed: 31,
    });
    let model = VerifierModel::train(&b.gold.train, VerdictSpace::ThreeWay, EvidenceView::Full);
    let mut seen = std::collections::BTreeSet::new();
    for s in &b.gold.dev {
        seen.insert(format!("{}", model.predict(s)));
    }
    // The trained model must actually use at least the two main classes.
    assert!(seen.contains("Supported") && seen.contains("Refuted"), "{seen:?}");
}

#[test]
fn qa_model_answers_are_always_from_candidates() {
    let b = corpora::wikisql_like(corpora::CorpusConfig::tiny());
    let model = QaModel::train(&b.gold.train);
    for s in b.gold.dev.iter().take(30) {
        let pred = model.predict(s);
        let cands = models::generate_candidates(s);
        assert!(cands.iter().any(|c| c.text == pred), "prediction `{pred}` not among candidates");
    }
}

#[test]
fn retriever_budget_respected() {
    let b = corpora::feverous_like(corpora::CorpusConfig::tiny());
    for s in b.gold.dev.iter().take(30) {
        assert!(models::retrieve_cells(s).len() <= 8);
    }
}
