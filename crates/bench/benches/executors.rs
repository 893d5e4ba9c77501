//! Criterion micro-benchmarks for the three program executors (the
//! Program-Executor module): SQL parse/execute, logical-form evaluation,
//! and arithmetic-expression execution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tabular::{ExecContext, Table};

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
    c.bench_function("sql/execute_64rows", |b| {
        b.iter(|| {
            for s in &stmts {
                black_box(sqlexec::execute(s, &table).unwrap());
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
    c.bench_function("logic/evaluate_64rows", |b| {
        b.iter(|| {
            for e in &exprs {
                black_box(logicforms::evaluate(e, &table).unwrap());
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
    c.bench_function("arith/execute", |b| {
        b.iter(|| {
            for p in &parsed {
                black_box(arithexpr::execute(p, &table).unwrap());
            }
        })
    });
}

/// ExecContext vs naive scans on a 128-row table: the per-table caches must
/// measurably beat re-scanning per program on tables ≥ 100 rows (the
/// ExecContext acceptance criterion).
fn bench_exec_context(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let table = sized_table(128);
    let ctx = ExecContext::new(&table);

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
    c.bench_function("logic/evaluate_128rows_naive", |b| {
        b.iter(|| {
            for e in &exprs {
                black_box(logicforms::evaluate(e, &table).unwrap());
            }
        })
    });
    c.bench_function("logic/evaluate_128rows_ctx", |b| {
        b.iter(|| {
            for e in &exprs {
                black_box(logicforms::evaluate_in(e, &table, &ctx).unwrap());
            }
        })
    });

    let programs = [
        "table_sum( points ) , divide( the points of Team3 , #0 )",
        "table_average( wins )",
        "table_max( points ) , table_min( points ) , subtract( #0 , #1 )",
    ];
    let parsed: Vec<_> = programs.iter().map(|p| arithexpr::parse(p).unwrap()).collect();
    c.bench_function("arith/execute_128rows_naive", |b| {
        b.iter(|| {
            for p in &parsed {
                black_box(arithexpr::execute(p, &table).unwrap());
            }
        })
    });
    c.bench_function("arith/execute_128rows_ctx", |b| {
        b.iter(|| {
            for p in &parsed {
                black_box(arithexpr::execute_in(p, &table, &ctx).unwrap());
            }
        })
    });

    let tpl =
        sqlexec::SqlTemplate::parse("select c1 from w where c2 = val1 and c3 = val2").unwrap();
    c.bench_function("sql/instantiate_128rows_naive", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| black_box(tpl.try_instantiate(&table, &mut rng)))
    });
    c.bench_function("sql/instantiate_128rows_ctx", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| black_box(tpl.try_instantiate_in(&table, &ctx, &mut rng)))
    });

    let lf_tpl =
        logicforms::LfTemplate::parse("eq { count { filter_eq { all_rows ; c1 ; val1 } } ; val2 }")
            .unwrap();
    c.bench_function("logic/instantiate_128rows_naive", |b| {
        let mut rng = StdRng::seed_from_u64(12);
        b.iter(|| black_box(lf_tpl.try_instantiate(&table, &mut rng, true)))
    });
    c.bench_function("logic/instantiate_128rows_ctx", |b| {
        let mut rng = StdRng::seed_from_u64(12);
        b.iter(|| black_box(lf_tpl.try_instantiate_in(&table, &ctx, &mut rng, true)))
    });

    let ae_tpl = arithexpr::AeTemplate::parse("table_sum( c1 ) , divide( val1 , #0 )").unwrap();
    c.bench_function("arith/instantiate_128rows_naive", |b| {
        let mut rng = StdRng::seed_from_u64(13);
        b.iter(|| black_box(ae_tpl.try_instantiate(&table, &mut rng)))
    });
    c.bench_function("arith/instantiate_128rows_ctx", |b| {
        let mut rng = StdRng::seed_from_u64(13);
        b.iter(|| black_box(ae_tpl.try_instantiate_in(&table, &ctx, &mut rng)))
    });
}

criterion_group!(benches, bench_sql, bench_logic, bench_arith, bench_exec_context);
criterion_main!(benches);
