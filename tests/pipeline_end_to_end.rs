//! Integration tests across crates: the full Algorithm 1 pipeline, label
//! faithfulness of synthetic data, and the complete unsupervised
//! train-evaluate loop.

use tabular::{ExecContext, KernelScratch};
use uctr::{
    generate_mqaqg, EvidenceType, MqaQgConfig, ProgramKind, Sample, UctrConfig, UctrPipeline,
    Verdict,
};

fn tatqa_inputs() -> Vec<uctr::TableWithContext> {
    corpora::tatqa_like(corpora::CorpusConfig::tiny()).unlabeled
}

fn wiki_inputs() -> Vec<uctr::TableWithContext> {
    corpora::wikisql_like(corpora::CorpusConfig::tiny()).unlabeled
}

/// Every synthetic verification sample's recorded program must execute on
/// its own evidence-generating table to the labeled truth value. (For
/// table-split samples the program ran on the full table, so we check on
/// the reconstructed evidence: sub-table + extracted sentence row.)
#[test]
fn verification_labels_are_execution_faithful() {
    let pipeline = UctrPipeline::new(UctrConfig {
        noise: nlgen::NoiseConfig::off(),
        ..UctrConfig::verification()
    });
    let samples = pipeline.generate(&wiki_inputs());
    assert!(samples.len() > 50, "too few samples: {}", samples.len());
    let mut checked = 0;
    for s in &samples {
        let ProgramKind::Logic(prog) = &s.program else { continue };
        // Table-only samples: program must evaluate to the label on the table.
        if s.evidence != EvidenceType::TableOnly {
            continue;
        }
        let expr = logicforms::parse(prog).expect("stored program parses");
        let ctx = ExecContext::new(&s.table);
        let truth = logicforms::evaluate_truth(&expr, &ctx, &mut KernelScratch::default())
            .expect("stored program executes");
        let expected = s.label.as_verdict().unwrap();
        if expected == Verdict::Unknown {
            continue; // unknowns were re-paired with foreign evidence
        }
        assert_eq!(
            truth,
            expected == Verdict::Supported,
            "label mismatch for claim `{}` / program `{prog}`",
            s.text
        );
        checked += 1;
    }
    assert!(checked > 20, "only {checked} table-only samples checked");
}

/// Every synthetic QA sample's program re-executes to the stored answer.
#[test]
fn qa_answers_are_execution_faithful() {
    let pipeline =
        UctrPipeline::new(UctrConfig { noise: nlgen::NoiseConfig::off(), ..UctrConfig::qa() });
    let samples = pipeline.generate(&tatqa_inputs());
    let mut checked = 0;
    for s in &samples {
        if s.evidence != EvidenceType::TableOnly {
            continue;
        }
        let answer = s.label.as_answer().unwrap();
        match &s.program {
            ProgramKind::Sql(q) => {
                let stmt = sqlexec::parse(q).expect("stored SQL parses");
                let r = sqlexec::execute(&stmt, &s.table, &mut KernelScratch::default())
                    .expect("stored SQL executes");
                assert_eq!(r.answer, answer, "answer mismatch for `{q}`");
            }
            ProgramKind::Arith(p) => {
                let prog = arithexpr::parse(p).expect("stored arith parses");
                let ctx = ExecContext::new(&s.table);
                let out = arithexpr::execute(&prog, &ctx, &mut KernelScratch::default())
                    .expect("stored arith executes");
                assert_eq!(out.answer.to_string(), answer, "answer mismatch for `{p}`");
            }
            _ => continue,
        }
        checked += 1;
    }
    assert!(checked > 20, "only {checked} samples checked");
}

/// Split samples must keep their evidence consistent: the sub-table plus
/// the sentence must still contain all the information the gold answer
/// needs (the sentence faithfully carries the removed row).
#[test]
fn split_samples_carry_one_sentence_and_smaller_table() {
    let pipeline =
        UctrPipeline::new(UctrConfig { noise: nlgen::NoiseConfig::off(), ..UctrConfig::qa() });
    let samples = pipeline.generate(&wiki_inputs());
    let split: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.evidence == EvidenceType::TableText && s.context.len() == 1)
        .collect();
    assert!(!split.is_empty(), "no table-split samples generated");
    for s in split {
        assert!(!s.context[0].is_empty());
        assert!(s.table.n_rows() >= 1);
        // The sentence must be extractable back into the table's schema
        // (Text-To-Table can restore the row).
        let restored = textops::extract_record(&s.context[0], &s.table);
        assert!(restored.is_some(), "sentence not machine-readable: {}", s.context[0]);
    }
}

/// The complete unsupervised loop: synthesize on unlabeled tables, train,
/// evaluate on gold dev — and beat both random and MQA-QG.
#[test]
fn unsupervised_loop_beats_baselines() {
    let b = corpora::semtab_like(corpora::CorpusConfig {
        n_tables: 80,
        train_per_table: 6,
        eval_per_table: 10,
        seed: 3,
    });
    let synth = UctrPipeline::new(UctrConfig { unknown_rate: 0.06, ..UctrConfig::verification() })
        .generate(&b.unlabeled);
    let uctr_model = models::VerifierModel::train(
        &synth,
        models::VerdictSpace::ThreeWay,
        models::EvidenceView::Full,
    );
    let mqa = generate_mqaqg(&b.unlabeled, &MqaQgConfig::verification());
    let mqa_model = models::VerifierModel::train(
        &mqa,
        models::VerdictSpace::ThreeWay,
        models::EvidenceView::Full,
    );
    let acc = |m: &models::VerifierModel| m.accuracy(&b.gold.dev);
    assert!(
        acc(&uctr_model) > acc(&mqa_model),
        "UCTR {:.3} must beat MQA-QG {:.3}",
        acc(&uctr_model),
        acc(&mqa_model)
    );
    assert!(acc(&uctr_model) > 0.45, "UCTR too weak: {:.3}", acc(&uctr_model));
}

/// Supervised beats unsupervised, and few-shot + UCTR beats few-shot alone
/// (the paper's headline orderings).
#[test]
fn headline_orderings_hold() {
    let b = corpora::wikisql_like(corpora::CorpusConfig {
        n_tables: 80,
        train_per_table: 8,
        eval_per_table: 10,
        seed: 5,
    });
    let synth = UctrPipeline::new(UctrConfig {
        use_arith: false,
        samples_per_table: 16,
        ..UctrConfig::qa()
    })
    .generate(&b.unlabeled);
    let supervised = models::QaModel::train(&b.gold.train);
    let unsupervised = models::QaModel::train(&synth);
    let em = |m: &models::QaModel| {
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
    let em_sup = em(&supervised);
    let em_unsup = em(&unsupervised);
    assert!(em_sup > em_unsup, "supervised {em_sup:.3} <= unsupervised {em_unsup:.3}");
    assert!(em_unsup > 0.2, "unsupervised too weak: {em_unsup:.3}");
}

/// The ablation ordering: the full pipeline yields at least as many joint
/// table-text samples as the -w/o T2T variant (which yields none).
#[test]
fn t2t_ablation_removes_joint_samples() {
    let inputs = tatqa_inputs();
    let full = UctrPipeline::new(UctrConfig::qa()).generate(&inputs);
    let ablated = UctrPipeline::new(UctrConfig::qa().without_t2t()).generate(&inputs);
    let joint = |ss: &[Sample]| ss.iter().filter(|s| s.evidence == EvidenceType::TableText).count();
    assert!(joint(&full) > 0);
    assert_eq!(joint(&ablated), 0);
}

/// MQA-QG emits only simple (program-free) samples — the property the
/// paper's comparison rests on.
#[test]
fn mqaqg_is_program_free() {
    let samples = generate_mqaqg(&wiki_inputs(), &MqaQgConfig::qa());
    assert!(!samples.is_empty());
    assert!(samples.iter().all(|s| s.program == ProgramKind::None));
}
