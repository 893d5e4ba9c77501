//! Reproduces **Table III**: results on the development set of TAT-QA
//! (EM/F1 by evidence type; supervised, unsupervised and few-shot rows).
//!
//! Paper reference values (Total EM/F1): Text-Span only 14.0/20.9,
//! Table-Cell only 11.9/16.9, TAPAS 18.9/26.5, TAGOP 55.5/62.9;
//! MQA-QG 19.4/27.7, UCTR -w/o T2T 32.8/40.5, UCTR 34.9/42.4;
//! few-shot TAGOP 8.3/12.1, TAGOP+UCTR 47.7/55.4.

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{few_shot, pretrain_finetune_qa, print_table, restrict_all};
use corpora::{tatqa_like, CorpusConfig};
use models::{CandidateSpace, EvidenceView, QaModel, TrainConfig};
use uctr::{generate_mqaqg, MqaQgConfig, UctrConfig, UctrPipeline};

fn row(name: &str, model: &QaModel, dev: &[uctr::Sample]) -> Vec<String> {
    row_view(name, model, dev, None)
}

/// Evidence-restricted baselines cannot see the hidden modality at test
/// time either (their architecture lacks the input).
fn row_view(
    name: &str,
    model: &QaModel,
    dev: &[uctr::Sample],
    view: Option<EvidenceView>,
) -> Vec<String> {
    let dev_view: Vec<uctr::Sample> = match view {
        Some(v) => restrict_all(dev, v),
        None => dev.to_vec(),
    };
    let b = qa_breakdown_original_evidence(model, dev, &dev_view);
    let mut cells = vec![name.to_string()];
    for (_, em, f1) in &b {
        cells.push(format!("{em:.1} / {f1:.1}"));
    }
    cells
}

/// Like `bench::qa_breakdown`, but groups by the ORIGINAL sample's evidence
/// type while predicting on the (possibly restricted) view.
fn qa_breakdown_original_evidence(
    model: &QaModel,
    original: &[uctr::Sample],
    view: &[uctr::Sample],
) -> Vec<(String, f64, f64)> {
    use models::em_f1;
    let mut rows = Vec::new();
    let mut all_pairs = Vec::new();
    for ev in
        [uctr::EvidenceType::TableOnly, uctr::EvidenceType::TableText, uctr::EvidenceType::TextOnly]
    {
        let pairs: Vec<(String, String)> = original
            .iter()
            .zip(view)
            .filter(|(o, _)| o.evidence == ev)
            .filter_map(|(o, v)| Some((model.predict(v), o.label.as_answer()?.to_string())))
            .collect();
        let (em, f1) = em_f1(&pairs);
        all_pairs.extend(pairs);
        rows.push((ev.to_string(), em, f1));
    }
    let (em, f1) = em_f1(&all_pairs);
    rows.push(("Total".to_string(), em, f1));
    rows
}

fn main() {
    let bench = tatqa_like(CorpusConfig::default());
    let dev = &bench.gold.dev;
    println!(
        "TAT-QA-like benchmark: {} train / {} dev gold samples, {} unlabeled tables",
        bench.gold.train.len(),
        dev.len(),
        bench.unlabeled.len()
    );

    // --- supervised models ---
    let text_span_only =
        QaModel::train(&restrict_all(&bench.gold.train, EvidenceView::SentenceOnly));
    let table_cell_only = QaModel::train(&restrict_all(&bench.gold.train, EvidenceView::TableOnly));
    let tapas = QaModel::train_in_space(
        &bench.gold.train,
        TrainConfig { epochs: 8, ..TrainConfig::default() },
        CandidateSpace::CellsAndAggs,
    );
    let tagop = QaModel::train(&bench.gold.train);

    // --- unsupervised models ---
    let mqa_data = generate_mqaqg(&bench.unlabeled, &MqaQgConfig::qa());
    let mqaqg = QaModel::train(&mqa_data);
    // The paper generates 23,933 synthetic samples for TAT-QA.
    let uctr_full_data =
        UctrPipeline::new(UctrConfig { samples_per_table: 16, ..UctrConfig::qa() })
            .generate(&bench.unlabeled);
    let uctr_model = QaModel::train(&uctr_full_data);
    let uctr_no_t2t_data =
        UctrPipeline::new(UctrConfig { samples_per_table: 16, ..UctrConfig::qa() }.without_t2t())
            .generate(&bench.unlabeled);
    let uctr_no_t2t = QaModel::train(&uctr_no_t2t_data);

    // --- few-shot ---
    let shots = few_shot(&bench.gold.train, 50);
    let tagop_few = QaModel::train(&shots);
    let tagop_uctr = pretrain_finetune_qa(&uctr_full_data, &shots);

    let header = ["Model", "Table EM/F1", "Table-Text EM/F1", "Text EM/F1", "Total EM/F1"];
    let rows = vec![
        row_view(
            "Supervised: Text-Span only  (paper 14.0/20.9)",
            &text_span_only,
            dev,
            Some(EvidenceView::SentenceOnly),
        ),
        row_view(
            "Supervised: Table-Cell only (paper 11.9/16.9)",
            &table_cell_only,
            dev,
            Some(EvidenceView::TableOnly),
        ),
        row("Supervised: TAPAS           (paper 18.9/26.5)", &tapas, dev),
        row("Supervised: TAGOP           (paper 55.5/62.9)", &tagop, dev),
        row("Unsup: MQA-QG               (paper 19.4/27.7)", &mqaqg, dev),
        row("Unsup: UCTR -w/o T2T        (paper 32.8/40.5)", &uctr_no_t2t, dev),
        row("Unsup: UCTR (ours)          (paper 34.9/42.4)", &uctr_model, dev),
        row("Few-shot: TAGOP             (paper  8.3/12.1)", &tagop_few, dev),
        row("Few-shot: TAGOP+UCTR        (paper 47.7/55.4)", &tagop_uctr, dev),
    ];
    print_table("Table III — TAT-QA dev (EM / F1)", &header, &rows);
    println!(
        "\nSynthetic data: UCTR {} samples, UCTR -w/o T2T {}, MQA-QG {} (paper: 23,933 UCTR samples).",
        uctr_full_data.len(),
        uctr_no_t2t_data.len(),
        mqa_data.len()
    );
}
