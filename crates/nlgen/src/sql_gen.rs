//! Surface realization of SQL queries into natural-language questions.
//!
//! The realizer inspects the instantiated query's shape (superlative,
//! counting, aggregation, lookup, difference, ...) and emits several
//! candidate phrasings with randomized lexical choices; the caller reranks
//! them with the n-gram LM. This mirrors how the paper's fine-tuned BART
//! maps SQUALL-style queries to questions (Table IX row 1).
//!
//! Candidates stream into pooled buffers (see [`StrPool`]): phrases are
//! appended in place rather than composed from intermediate `String`s, and
//! the few sub-phrases that must be materialized (pluralization targets,
//! the shared WHERE clause) come from the pool. RNG draw order is part of
//! the determinism contract and matches the historical compositional form
//! draw for draw.

use crate::lexicon::*;
use crate::pool::StrPool;
use rand::Rng;
use sqlexec::{AggFunc, ArithOp, CmpOp, ColumnRef, Cond, Expr, OrderDir, SelectItem, SelectStmt};
use std::fmt::Write as _;

/// Appends a column reference (placeholders should not reach realization).
fn col_into(c: &ColumnRef, out: &mut String) {
    match c {
        ColumnRef::Named(n) => out.push_str(n),
        ColumnRef::Placeholder { index, .. } => {
            let _ = write!(out, "column {index}");
        }
    }
}

/// Appends a scalar expression as a noun phrase.
fn expr_into(e: &Expr, out: &mut String) {
    match e {
        Expr::Column(c) => col_into(c, out),
        Expr::Literal(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::ValuePlaceholder(i) => {
            let _ = write!(out, "value {i}");
        }
        Expr::Binary { op, lhs, rhs } => {
            let word = match op {
                ArithOp::Add => "plus",
                ArithOp::Sub => "minus",
                ArithOp::Mul => "times",
                ArithOp::Div => "divided by",
            };
            expr_into(lhs, out);
            out.push(' ');
            out.push_str(word);
            out.push(' ');
            expr_into(rhs, out);
        }
    }
}

/// Appends a condition tree as an English clause ("the city is Oslo and the
/// score is more than 10").
fn cond_into(c: &Cond, rng: &mut impl Rng, out: &mut String) {
    match c {
        Cond::Compare { op, lhs, rhs } => {
            out.push_str("the ");
            expr_into(lhs, out);
            match op {
                CmpOp::Eq => out.push_str(" is "),
                CmpOp::NotEq => out.push_str(" is not "),
                CmpOp::Gt => {
                    out.push_str(" is ");
                    out.push_str(MORE_THAN.pick(rng));
                    out.push(' ');
                }
                CmpOp::Lt => {
                    out.push_str(" is ");
                    out.push_str(LESS_THAN.pick(rng));
                    out.push(' ');
                }
                CmpOp::GtEq => out.push_str(" is at least "),
                CmpOp::LtEq => out.push_str(" is at most "),
            }
            expr_into(rhs, out);
        }
        Cond::And(a, b) => {
            cond_into(a, rng, out);
            out.push_str(" and ");
            cond_into(b, rng, out);
        }
        Cond::Or(a, b) => {
            cond_into(a, rng, out);
            out.push_str(" or ");
            cond_into(b, rng, out);
        }
    }
}

/// Writes `k` candidate questions for an instantiated query into `out`
/// (replacing its contents). Candidate slots and phrase temporaries come
/// from `pool` and keep their capacity across samples; a reused `out` and
/// `pool` give the same candidates as fresh ones.
pub fn realize_sql(
    stmt: &SelectStmt,
    rng: &mut impl Rng,
    k: usize,
    out: &mut Vec<String>,
    pool: &mut StrPool,
) {
    fill_slots(out, pool, k.max(1));
    for slot in out.iter_mut() {
        let mut dst = std::mem::take(slot);
        realize_once_into(stmt, rng, &mut dst, pool);
        *slot = dst;
    }
    dedup_pooled(out, pool);
}

/// Resizes `out` to exactly `k` slots, pooling removed buffers.
pub(crate) fn fill_slots(out: &mut Vec<String>, pool: &mut StrPool, k: usize) {
    while out.len() > k {
        if let Some(s) = out.pop() {
            pool.put(s);
        }
    }
    while out.len() < k {
        out.push(pool.take());
    }
}

/// `Vec::dedup` (drop all but the first of consecutive equal candidates)
/// that returns dropped buffers to the pool instead of freeing them.
pub(crate) fn dedup_pooled(out: &mut Vec<String>, pool: &mut StrPool) {
    let mut kept = 1;
    for i in 1..out.len() {
        if out[i] == out[kept - 1] {
            continue;
        }
        out.swap(kept, i);
        kept += 1;
    }
    while out.len() > kept.min(out.len()) {
        if let Some(s) = out.pop() {
            pool.put(s);
        }
    }
}

fn realize_once_into(stmt: &SelectStmt, rng: &mut impl Rng, dst: &mut String, pool: &mut StrPool) {
    let mut wher = pool.take();
    let has_where = stmt.where_clause.is_some();
    if let Some(w) = &stmt.where_clause {
        cond_into(w, rng, &mut wher);
    }
    let mut raw = pool.take();
    build_raw(stmt, rng, has_where, &wher, &mut raw, pool);
    finish_sentence(&raw, '?', dst);
    pool.put(raw);
    pool.put(wher);
}

fn build_raw(
    stmt: &SelectStmt,
    rng: &mut impl Rng,
    has_where: bool,
    wher: &str,
    raw: &mut String,
    pool: &mut StrPool,
) {
    // Superlative: `select X from w order by Y desc limit 1`.
    if let (Some((Expr::Column(order_col), dir)), Some(1)) = (&stmt.order_by, stmt.limit) {
        if let Some(SelectItem::Expr(Expr::Column(sel))) = stmt.items.first() {
            let adj = match dir {
                OrderDir::Desc => MOST.pick(rng),
                OrderDir::Asc => LEAST.pick(rng),
            };
            match rng.gen_range(0..3) {
                0 => {
                    raw.push_str(WHICH.pick(rng));
                    raw.push(' ');
                    col_into(sel, raw);
                    raw.push_str(" has the ");
                    raw.push_str(adj);
                    raw.push(' ');
                    col_into(order_col, raw);
                }
                1 => {
                    raw.push_str(WHAT_IS.pick(rng));
                    raw.push_str(" the ");
                    col_into(sel, raw);
                    raw.push_str(" with the ");
                    raw.push_str(adj);
                    raw.push(' ');
                    col_into(order_col, raw);
                }
                _ => {
                    raw.push_str(WHAT_IS.pick(rng));
                    raw.push_str(" the ");
                    col_into(sel, raw);
                    raw.push_str(" with the ");
                    raw.push_str(adj);
                    raw.push_str(" amount of ");
                    col_into(order_col, raw);
                }
            }
            if has_where {
                raw.push_str(" when ");
                raw.push_str(wher);
            }
            return;
        }
    }

    // Aggregates.
    if let Some(SelectItem::Aggregate { func, arg, .. }) = stmt.items.first() {
        match (func, arg) {
            (AggFunc::Count, None) => {
                let noun = Slot::new(&["rows", "entries", "records", "times"]).pick(rng);
                raw.push_str(HOW_MANY.pick(rng));
                raw.push(' ');
                raw.push_str(noun);
                if has_where {
                    raw.push_str(" are there where ");
                    raw.push_str(wher);
                } else {
                    raw.push_str(" are in the table");
                }
            }
            (AggFunc::Count, Some(e)) => {
                raw.push_str(HOW_MANY.pick(rng));
                raw.push(' ');
                if has_where {
                    expr_into(e, raw);
                    raw.push_str(" values are there where ");
                    raw.push_str(wher);
                } else {
                    let mut target = pool.take();
                    expr_into(e, &mut target);
                    pluralize_into(&target, raw);
                    pool.put(target);
                    raw.push_str(" values are listed");
                }
            }
            (agg, Some(e)) => {
                let noun = match agg {
                    AggFunc::Sum => TOTAL.pick(rng),
                    AggFunc::Avg => AVERAGE.pick(rng),
                    AggFunc::Min => LEAST.pick(rng),
                    AggFunc::Max => MOST.pick(rng),
                    // Count is consumed by the two arms above; keep a
                    // neutral noun for any future aggregate.
                    AggFunc::Count => TOTAL.pick(rng),
                };
                raw.push_str(WHAT_IS.pick(rng));
                raw.push_str(" the ");
                raw.push_str(noun);
                raw.push(' ');
                expr_into(e, raw);
                if has_where {
                    raw.push_str(" when ");
                    raw.push_str(wher);
                }
            }
            (_, None) => {
                raw.push_str(WHAT_IS.pick(rng));
                raw.push_str(" the result");
            }
        }
        return;
    }

    // Difference between two columns.
    if let Some(SelectItem::Expr(Expr::Binary { op: ArithOp::Sub, lhs, rhs })) = stmt.items.first()
    {
        raw.push_str(WHAT_IS.pick(rng));
        raw.push_str(" the ");
        raw.push_str(DIFFERENCE.pick(rng));
        raw.push_str(" between ");
        expr_into(lhs, raw);
        raw.push_str(" and ");
        expr_into(rhs, raw);
        if has_where {
            raw.push_str(" when ");
            raw.push_str(wher);
        }
        return;
    }

    // Plain lookup: `select X from w where ...`.
    if let Some(SelectItem::Expr(e)) = stmt.items.first() {
        if has_where {
            match rng.gen_range(0..3) {
                0 => {
                    raw.push_str(WHAT_IS.pick(rng));
                    raw.push_str(" the ");
                    expr_into(e, raw);
                    raw.push_str(" when ");
                    raw.push_str(wher);
                }
                1 => {
                    raw.push_str(WHICH.pick(rng));
                    raw.push(' ');
                    expr_into(e, raw);
                    raw.push_str(" is listed where ");
                    raw.push_str(wher);
                }
                _ => {
                    raw.push_str(WHAT_IS.pick(rng));
                    raw.push_str(" the ");
                    expr_into(e, raw);
                    raw.push_str(" for the row where ");
                    raw.push_str(wher);
                }
            }
        } else {
            raw.push_str(WHAT_IS.pick(rng));
            raw.push_str(" all the ");
            let mut target = pool.take();
            expr_into(e, &mut target);
            pluralize_into(&target, raw);
            pool.put(target);
            raw.push_str(" in the table");
        }
        return;
    }

    // `select *` fallback.
    raw.push_str(WHAT_IS.pick(rng));
    if has_where {
        raw.push_str(" the full record where ");
        raw.push_str(wher);
    } else {
        raw.push_str(" in the table");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqlexec::parse;

    /// `k` candidates through fresh buffers.
    fn candidates(stmt: &SelectStmt, seed: u64, k: usize) -> Vec<String> {
        let mut out = Vec::new();
        realize_sql(stmt, &mut StdRng::seed_from_u64(seed), k, &mut out, &mut StrPool::default());
        out
    }

    fn realize(q: &str, seed: u64) -> String {
        let stmt = parse(q).unwrap_or_else(|e| panic!("parse: {e}"));
        candidates(&stmt, seed, 1).remove(0)
    }

    #[test]
    fn superlative_question() {
        let q = realize("select [department] from w order by [total deputies] desc limit 1", 1);
        let lower = q.to_lowercase();
        assert!(lower.contains("department"), "{q}");
        assert!(lower.contains("total deputies"), "{q}");
        assert!(q.ends_with('?'));
        assert!(
            ["highest", "most", "greatest", "largest", "top", "maximum"]
                .iter()
                .any(|w| lower.contains(w)),
            "{q}"
        );
    }

    #[test]
    fn minimum_question() {
        let q = realize("select [name] from w order by [score] asc limit 1", 2);
        let lower = q.to_lowercase();
        assert!(
            ["lowest", "least", "smallest", "fewest", "minimum"].iter().any(|w| lower.contains(w)),
            "{q}"
        );
    }

    #[test]
    fn count_question() {
        let q = realize("select count(*) from w where [points] > 50", 3);
        let lower = q.to_lowercase();
        assert!(lower.starts_with("how many") || lower.starts_with("what number of"), "{q}");
        assert!(lower.contains("points"), "{q}");
        assert!(lower.contains("50"), "{q}");
    }

    #[test]
    fn aggregation_question() {
        let q = realize("select sum([budget]) from w", 4);
        let lower = q.to_lowercase();
        assert!(lower.contains("budget"), "{q}");
        assert!(["total", "sum", "combined total"].iter().any(|w| lower.contains(w)), "{q}");
    }

    #[test]
    fn lookup_question() {
        let q = realize("select [budget] from w where [department] = 'Treasury'", 5);
        let lower = q.to_lowercase();
        assert!(lower.contains("budget"), "{q}");
        assert!(lower.contains("treasury"), "{q}");
    }

    #[test]
    fn conjunction_appears() {
        let q = realize("select [name] from w where [points] > 10 and [wins] < 5", 6);
        let lower = q.to_lowercase();
        assert!(lower.contains(" and "), "{q}");
    }

    #[test]
    fn difference_question() {
        let q = realize("select [budget] - [spend] from w where [dept] = 'X'", 7);
        let lower = q.to_lowercase();
        assert!(["difference", "change", "gap"].iter().any(|w| lower.contains(w)), "{q}");
    }

    #[test]
    fn candidates_vary() {
        let stmt = parse("select [name] from w order by [score] desc limit 1")
            .unwrap_or_else(|e| panic!("parse: {e}"));
        let cands = candidates(&stmt, 8, 8);
        assert!(cands.len() > 1, "expected lexical variety, got {cands:?}");
    }

    #[test]
    fn pooled_form_matches_fresh_buffers() {
        // A dirty reused pool and candidate vector must give the same
        // candidates as fresh ones for the same seed.
        let stmts = [
            "select [department] from w order by [total deputies] desc limit 1",
            "select count(*) from w where [points] > 50",
            "select sum([budget]) from w where [city] = 'Oslo'",
            "select [budget] - [spend] from w",
            "select [name] from w where [points] > 10 and [wins] < 5",
            "select [name] from w",
        ];
        let mut out = Vec::new();
        let mut pool = StrPool::default();
        for (i, q) in stmts.iter().enumerate() {
            let stmt = parse(q).unwrap_or_else(|e| panic!("parse: {e}"));
            let fresh = candidates(&stmt, 40 + i as u64, 6);
            let mut rng = StdRng::seed_from_u64(40 + i as u64);
            realize_sql(&stmt, &mut rng, 6, &mut out, &mut pool);
            assert_eq!(out, fresh, "pooled candidates diverge for {q}");
        }
    }

    #[test]
    fn dedup_pooled_matches_vec_dedup() {
        let cases: &[&[&str]] = &[
            &["a", "a", "b"],
            &["a", "b", "a"],
            &["a", "a", "a"],
            &["a"],
            &["a", "b", "b", "c", "c", "c", "a"],
        ];
        for case in cases {
            let mut reference: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            reference.dedup();
            let mut pooled: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            dedup_pooled(&mut pooled, &mut StrPool::default());
            assert_eq!(pooled, reference, "case {case:?}");
        }
    }
}
