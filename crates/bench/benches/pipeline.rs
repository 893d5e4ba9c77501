//! Criterion benchmarks for the end-to-end UCTR pipeline and its operators:
//! table splitting, table expansion, and full Algorithm 1 throughput, plus
//! ablation variants of the design choices DESIGN.md flags (noise channel,
//! T2T operators).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use nlgen::NoiseConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::Table;
use uctr::{TableWithContext, UctrConfig, UctrPipeline};

fn inputs() -> Vec<TableWithContext> {
    let t1 = Table::from_strings(
        "Teams",
        &[
            vec!["team", "city", "points", "wins"],
            vec!["Reds", "Oslo", "77", "21"],
            vec!["Blues", "Lima", "64", "18"],
            vec!["Greens", "Kyiv", "81", "24"],
            vec!["Golds", "Quito", "59", "15"],
        ],
    )
    .unwrap();
    vec![TableWithContext {
        table: t1.into(),
        paragraph: Some("Silvers has a city of Rome, a points of 70 and a wins of 19.".to_string()),
        topic: "sports".into(),
    }]
}

fn bench_operators(c: &mut Criterion) {
    let input = inputs().remove(0);
    c.bench_function("textops/table_to_text", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(textops::table_to_text(&input.table, 1, &mut rng)))
    });
    c.bench_function("textops/text_to_table", |b| {
        b.iter(|| {
            black_box(textops::text_to_table(&input.table, input.paragraph.as_deref().unwrap()))
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let data = inputs();
    c.bench_function("pipeline/qa_per_table", |b| {
        b.iter_batched(
            || UctrPipeline::new(UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() }),
            |p| black_box(p.generate(&data)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("pipeline/verification_per_table", |b| {
        b.iter_batched(
            || {
                UctrPipeline::new(UctrConfig {
                    noise: NoiseConfig::off(),
                    ..UctrConfig::verification()
                })
            },
            |p| black_box(p.generate(&data)),
            BatchSize::SmallInput,
        )
    });
    // Design-choice ablation: the T2T operators' cost share.
    c.bench_function("pipeline/qa_without_t2t", |b| {
        b.iter_batched(
            || {
                UctrPipeline::new(
                    UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() }.without_t2t(),
                )
            },
            |p| black_box(p.generate(&data)),
            BatchSize::SmallInput,
        )
    });
    // Design-choice ablation: noise channel cost.
    c.bench_function("pipeline/qa_with_noise", |b| {
        b.iter_batched(
            || UctrPipeline::new(UctrConfig::qa()),
            |p| black_box(p.generate(&data)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_operators, bench_pipeline);
criterion_main!(benches);
