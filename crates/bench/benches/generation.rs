//! Criterion micro-benchmarks for the NL-Generator: per-program-type
//! realization, LM scoring, and template instantiation throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nlgen::{NgramLm, NlGenerator, NoiseConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::{ExecContext, Table};

fn bench_realization(c: &mut Criterion) {
    let generator = NlGenerator::new().with_noise(NoiseConfig::off());
    let stmt = sqlexec::parse("select [department] from w order by [total deputies] desc limit 1")
        .unwrap();
    let lf =
        logicforms::parse("eq { hop { argmax { all_rows ; speed } ; model } ; P300 }").unwrap();
    let ae = arithexpr::parse(
        "subtract( the 2019 of Equity , the 2018 of Equity ), divide( #0 , the 2018 of Equity )",
    )
    .unwrap();
    c.bench_function("nlgen/sql_question", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(generator.sql_question(&stmt, &mut rng)))
    });
    c.bench_function("nlgen/logic_claim", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(generator.logic_claim(&lf, &mut rng)))
    });
    c.bench_function("nlgen/arith_question", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(generator.arith_question(&ae, &mut rng)))
    });
}

fn bench_lm(c: &mut Criterion) {
    let mut lm = NgramLm::new(3);
    lm.fit(&nlgen::seed_corpus());
    let sentence = "what is the department with the most amount of total deputies?";
    c.bench_function("nlgen/lm_score", |b| b.iter(|| black_box(lm.score(sentence))));
    c.bench_function("nlgen/lm_observe", |b| {
        b.iter_batched(
            || NgramLm::new(3),
            |mut m| {
                m.observe(sentence);
                black_box(m)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_templates(c: &mut Criterion) {
    let table = Table::from_strings(
        "t",
        &[
            vec!["name", "city", "points", "wins"],
            vec!["Reds", "Oslo", "77", "21"],
            vec!["Blues", "Lima", "64", "18"],
            vec!["Greens", "Kyiv", "81", "24"],
            vec!["Golds", "Quito", "59", "15"],
        ],
    )
    .unwrap();
    let sql_tpl =
        sqlexec::SqlTemplate::parse("select c1 from w order by c2_number desc limit 1").unwrap();
    let lf_tpl = logicforms::LfTemplate::parse(
        "eq { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; val2 }",
    )
    .unwrap();
    let ctx = ExecContext::new(&table);
    c.bench_function("template/sql_instantiate", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = sqlexec::SqlScratch::default();
        b.iter(|| black_box(sql_tpl.try_instantiate(&table, &ctx, &mut rng, &mut scratch)))
    });
    c.bench_function("template/logic_instantiate_true", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = logicforms::LfScratch::default();
        b.iter(|| black_box(lf_tpl.try_instantiate(&table, &ctx, &mut rng, true, &mut scratch)))
    });
}

criterion_group!(benches, bench_realization, bench_lm, bench_templates);
criterion_main!(benches);
