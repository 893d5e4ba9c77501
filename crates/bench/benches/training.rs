//! Criterion benchmarks for the reasoning-model substrate: feature
//! extraction, candidate generation, and model training/prediction.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use models::{verifier_features, EvidenceView, QaModel, VerdictSpace, VerifierModel};
use tabular::Table;
use uctr::{Sample, Verdict};

fn table() -> Table {
    Table::from_strings(
        "Printers",
        &[
            vec!["model", "material", "speed", "price"],
            vec!["P100", "PLA", "60", "199"],
            vec!["P200", "ABS", "80", "299"],
            vec!["P300", "PLA", "95", "399"],
            vec!["P400", "PETG", "95", "349"],
        ],
    )
    .unwrap()
}

fn verification_set(n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let claim = if i % 2 == 0 {
                "P300 has the highest speed."
            } else {
                "P100 has the highest speed."
            };
            let verdict = if i % 2 == 0 { Verdict::Supported } else { Verdict::Refuted };
            Sample::verification(table(), claim, verdict)
        })
        .collect()
}

fn bench_features(c: &mut Criterion) {
    let s = Sample::verification(
        table(),
        "Most of the models have a speed above 70.",
        Verdict::Supported,
    );
    c.bench_function("models/verifier_features", |b| b.iter(|| black_box(verifier_features(&s))));
    let qa = Sample::qa(table(), "What is the total price of all models?", "1246");
    c.bench_function("models/qa_candidates", |b| {
        b.iter(|| black_box(models::generate_candidates(&qa)))
    });
}

fn bench_training(c: &mut Criterion) {
    let train = verification_set(100);
    c.bench_function("models/verifier_train_100", |b| {
        b.iter_batched(
            || train.clone(),
            |data| black_box(VerifierModel::train(&data, VerdictSpace::TwoWay, EvidenceView::Full)),
            BatchSize::SmallInput,
        )
    });
    let model = VerifierModel::train(&train, VerdictSpace::TwoWay, EvidenceView::Full);
    let s = &train[0];
    c.bench_function("models/verifier_predict", |b| b.iter(|| black_box(model.predict(s))));

    let qa_train: Vec<Sample> = (0..50)
        .map(|i| {
            Sample::qa(
                table(),
                format!("What is the price of P{}00?", (i % 4) + 1),
                format!("{}", [199, 299, 399, 349][i % 4]),
            )
        })
        .collect();
    c.bench_function("models/qa_train_50", |b| {
        b.iter_batched(
            || qa_train.clone(),
            |data| black_box(QaModel::train(&data)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_features, bench_training);
criterion_main!(benches);
