//! Layers the program does not time itself, timed by calling their public
//! functions on a workload's own tables (median of a few calls each).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tabular::ExecContext;
use textops::TextScratch;
use uctr::{TableWithContext, TemplateBank};

/// Median wall time of `reps` calls of `f`, in ns.
pub fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut ns: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// What the pipeline spends on one input outside its own timers, in ns.
pub struct TableCost {
    /// `ExecContext::new` + `feasible_set`, plus the expanded table's
    /// `with_row_appended` + `feasible_set` when the paragraph integrates.
    pub ctx_ns: f64,
    /// `text_to_table`, for an input with a paragraph.
    pub expand_ns: Option<f64>,
    /// One `table_to_text` call, for a split-eligible input (3+ rows).
    pub split_ns: Option<f64>,
}

/// Times the layers of one input; `None` for a degenerate table, which the
/// pipeline skips.
pub fn table_cost(bank: &TemplateBank, input: &TableWithContext) -> Option<TableCost> {
    let table = &input.table;
    if table.n_rows() == 0 || table.n_cols() == 0 {
        return None;
    }
    let reps = if table.n_rows() > 1000 { 3 } else { 7 };
    let mut ctx_ns = time_ns(reps, || {
        let ctx = ExecContext::new(table);
        black_box(bank.feasible_set(&ctx));
        ctx
    });
    let mut expand_ns = None;
    if let Some(paragraph) = &input.paragraph {
        expand_ns = Some(time_ns(reps, || textops::text_to_table(table, paragraph)));
        if let Some(expanded) = textops::text_to_table(table, paragraph) {
            let ctx = ExecContext::new(table);
            ctx_ns += time_ns(reps, || {
                let e = ctx.with_row_appended(table, &expanded.expanded);
                black_box(bank.feasible_set(&e));
                e
            });
        }
    }
    let split_ns = (table.n_rows() >= 3).then(|| {
        let (mut rng, mut text) = (StdRng::seed_from_u64(0), TextScratch::default());
        let row = table.n_rows() / 2;
        time_ns(reps, || textops::table_to_text_with(table, row, &mut rng, &mut text))
    });
    Some(TableCost { ctx_ns, expand_ns, split_ns })
}
