//! Criterion micro-benchmarks for the three program executors (the
//! Program-Executor module): SQL parse/execute, logical-form evaluation,
//! and arithmetic-expression execution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tabular::{ExecContext, KernelScratch, Table};

fn sample_table() -> Table {
    sized_table(64)
}

fn sized_table(rows: usize) -> Table {
    let mut grid: Vec<Vec<String>> =
        vec![vec!["team".into(), "city".into(), "points".into(), "wins".into(), "losses".into()]];
    for i in 0..rows {
        grid.push(vec![
            format!("Team{i}"),
            format!("City{}", i % 12),
            format!("{}", 20 + (i * 7) % 80),
            format!("{}", (i * 3) % 30),
            format!("{}", (i * 5) % 20),
        ]);
    }
    let borrowed: Vec<Vec<&str>> =
        grid.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    Table::from_strings("standings", &borrowed).unwrap()
}

fn bench_sql(c: &mut Criterion) {
    let table = sample_table();
    let queries = [
        "select [team] from w order by [points] desc limit 1",
        "select count(*) from w where [points] > 50 and [wins] < 20",
        "select sum([points]) from w where [city] = 'City3'",
        "select [team], count(*) from w group by [city]",
    ];
    c.bench_function("sql/parse", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(sqlexec::parse(q).unwrap());
            }
        })
    });
    let stmts: Vec<_> = queries.iter().map(|q| sqlexec::parse(q).unwrap()).collect();
    let mut kern = KernelScratch::default();
    c.bench_function("sql/execute_64rows", |b| {
        b.iter(|| {
            for s in &stmts {
                black_box(sqlexec::execute(s, &table, &mut kern).unwrap());
            }
        })
    });
}

fn bench_logic(c: &mut Criterion) {
    let table = sample_table();
    let forms = [
        "eq { hop { argmax { all_rows ; points } ; team } ; Team5 }",
        "most_greater { all_rows ; points ; 40 }",
        "eq { count { filter_eq { all_rows ; city ; City3 } } ; 6 }",
        "round_eq { avg { all_rows ; wins } ; 14.5 }",
    ];
    let exprs: Vec<_> = forms.iter().map(|f| logicforms::parse(f).unwrap()).collect();
    c.bench_function("logic/parse", |b| {
        b.iter(|| {
            for f in &forms {
                black_box(logicforms::parse(f).unwrap());
            }
        })
    });
    let ctx = ExecContext::new(&table);
    let mut kern = KernelScratch::default();
    c.bench_function("logic/evaluate_64rows", |b| {
        b.iter(|| {
            for e in &exprs {
                black_box(logicforms::evaluate(e, &table, &ctx, &mut kern).unwrap());
            }
        })
    });
}

fn bench_arith(c: &mut Criterion) {
    let table = Table::from_strings(
        "fin",
        &[
            vec!["item", "2019", "2018"],
            vec!["Revenue", "8800", "8000"],
            vec!["Costs", "6100", "5900"],
            vec!["Equity", "3200", "4000"],
        ],
    )
    .unwrap();
    let programs = [
        "subtract( the 2019 of Revenue , the 2018 of Revenue ), divide( #0 , the 2018 of Revenue )",
        "table_sum( 2019 ) , divide( the 2019 of Costs , #0 )",
        "greater( the 2019 of Equity , the 2018 of Equity )",
    ];
    let parsed: Vec<_> = programs.iter().map(|p| arithexpr::parse(p).unwrap()).collect();
    c.bench_function("arith/parse", |b| {
        b.iter(|| {
            for p in &programs {
                black_box(arithexpr::parse(p).unwrap());
            }
        })
    });
    let ctx = ExecContext::new(&table);
    let mut kern = KernelScratch::default();
    c.bench_function("arith/execute", |b| {
        b.iter(|| {
            for p in &parsed {
                black_box(arithexpr::execute(p, &table, &ctx, &mut kern).unwrap());
            }
        })
    });
}

/// The per-table [`ExecContext`] on a 128-row table: what building it
/// costs, and the context-backed executors and samplers that amortize it.
fn bench_exec_context(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let table = sized_table(128);
    let ctx = ExecContext::new(&table);
    let mut kern = KernelScratch::default();

    c.bench_function("ctx/build_128rows", |b| {
        b.iter(|| black_box(ExecContext::new(black_box(&table))))
    });

    let forms = [
        "eq { max { all_rows ; points } ; 99 }",
        "round_eq { avg { all_rows ; wins } ; 14.5 }",
        "round_eq { sum { all_rows ; losses } ; 1216 }",
        "eq { nth_max { all_rows ; points ; 3 } ; 97 }",
    ];
    let exprs: Vec<_> = forms.iter().map(|f| logicforms::parse(f).unwrap()).collect();
    c.bench_function("logic/evaluate_128rows_ctx", |b| {
        b.iter(|| {
            for e in &exprs {
                black_box(logicforms::evaluate(e, &table, &ctx, &mut kern).unwrap());
            }
        })
    });

    let programs = [
        "table_sum( points ) , divide( the points of Team3 , #0 )",
        "table_average( wins )",
        "table_max( points ) , table_min( points ) , subtract( #0 , #1 )",
    ];
    let parsed: Vec<_> = programs.iter().map(|p| arithexpr::parse(p).unwrap()).collect();
    c.bench_function("arith/execute_128rows_ctx", |b| {
        b.iter(|| {
            for p in &parsed {
                black_box(arithexpr::execute(p, &table, &ctx, &mut kern).unwrap());
            }
        })
    });

    let tpl =
        sqlexec::SqlTemplate::parse("select c1 from w where c2 = val1 and c3 = val2").unwrap();
    c.bench_function("sql/instantiate_128rows_ctx", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = sqlexec::SqlScratch::default();
        b.iter(|| black_box(tpl.try_instantiate(&table, &ctx, &mut rng, &mut scratch)))
    });

    let lf_tpl =
        logicforms::LfTemplate::parse("eq { count { filter_eq { all_rows ; c1 ; val1 } } ; val2 }")
            .unwrap();
    c.bench_function("logic/instantiate_128rows_ctx", |b| {
        let mut rng = StdRng::seed_from_u64(12);
        let mut scratch = logicforms::LfScratch::default();
        b.iter(|| black_box(lf_tpl.try_instantiate(&table, &ctx, &mut rng, true, &mut scratch)))
    });

    let ae_tpl = arithexpr::AeTemplate::parse("table_sum( c1 ) , divide( val1 , #0 )").unwrap();
    c.bench_function("arith/instantiate_128rows_ctx", |b| {
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = arithexpr::AeScratch::default();
        b.iter(|| black_box(ae_tpl.try_instantiate(&table, &ctx, &mut rng, &mut scratch)))
    });
}

criterion_group!(benches, bench_sql, bench_logic, bench_arith, bench_exec_context);
criterion_main!(benches);
