//! Surface realization of logical forms into natural-language claims.
//!
//! Claims are declarative sentences whose truth equals the program's
//! execution result. The realizer is compositional: filter chains become
//! relative clauses ("the rows whose material is PLA"), and the root
//! operator picks a claim frame per logic type (count / superlative /
//! ordinal / aggregation / majority / unique / comparative), matching the
//! Logic2Text phrasing the paper's fine-tuned GPT-2 produces (Table IX).
//!
//! Phrases stream into pooled buffers (see [`StrPool`]) instead of being
//! composed from intermediate `String`s; RNG draw order is part of the
//! determinism contract and matches the historical compositional form draw
//! for draw.

use crate::lexicon::*;
use crate::pool::StrPool;
use crate::sql_gen::{dedup_pooled, fill_slots};
use logicforms::{LfExpr, LfOp};
use rand::Rng;
use std::fmt::Write as _;

/// Writes `k` candidate claims for an instantiated logical form into `out`
/// (replacing its contents), with temporaries from `pool`; a reused `out`
/// and `pool` give the same candidates as fresh ones.
pub fn realize_logic(
    expr: &LfExpr,
    rng: &mut impl Rng,
    k: usize,
    out: &mut Vec<String>,
    pool: &mut StrPool,
) {
    fill_slots(out, pool, k.max(1));
    for slot in out.iter_mut() {
        let mut dst = std::mem::take(slot);
        realize_once_into(expr, rng, &mut dst, pool);
        *slot = dst;
    }
    dedup_pooled(out, pool);
}

/// Appends a view as a relative clause (nothing for `all_rows`).
fn view_clause_into(e: &LfExpr, rng: &mut impl Rng, out: &mut String) {
    match e {
        LfExpr::AllRows => {}
        LfExpr::Apply(op, args) => {
            use LfOp::*;
            match op {
                FilterEq | FilterNotEq | FilterGreater | FilterLess | FilterGreaterEq
                | FilterLessEq => {
                    let start = out.len();
                    view_clause_into(&args[0], rng, out);
                    if out.len() > start {
                        out.push_str(" and ");
                    }
                    out.push_str("whose ");
                    leaf_into(&args[1], out);
                    match op {
                        FilterEq => out.push_str(" is "),
                        FilterNotEq => out.push_str(" is not "),
                        FilterGreater => {
                            out.push_str(" is ");
                            out.push_str(MORE_THAN.pick(rng));
                            out.push(' ');
                        }
                        FilterLess => {
                            out.push_str(" is ");
                            out.push_str(LESS_THAN.pick(rng));
                            out.push(' ');
                        }
                        FilterGreaterEq => out.push_str(" is at least "),
                        FilterLessEq => out.push_str(" is at most "),
                        // The outer arm admits only the six filter ops
                        // above; any future op falls back to the eq frame.
                        _ => out.push_str(" is "),
                    }
                    leaf_into(&args[2], out);
                }
                FilterAll => {
                    let start = out.len();
                    view_clause_into(&args[0], rng, out);
                    if out.len() > start {
                        out.push(' ');
                    }
                    out.push_str("with a listed ");
                    leaf_into(&args[1], out);
                }
                _ => {}
            }
        }
        _ => {}
    }
}

fn leaf_into(e: &LfExpr, out: &mut String) {
    match e {
        LfExpr::Column(c) => out.push_str(c),
        LfExpr::Const(v) => out.push_str(v),
        LfExpr::AllRows => out.push_str("all rows"),
        LfExpr::ColumnHole(i) => {
            let _ = write!(out, "column {i}");
        }
        LfExpr::ValueHole(i) => {
            let _ = write!(out, "value {i}");
        }
        LfExpr::Apply(..) => describe_scalar_into(e, out),
    }
}

/// Appends a scalar-producing subtree as a noun phrase. Draws nothing from
/// the RNG (view descriptions go through the throwaway-RNG noun-phrase
/// form), so streaming order is free.
fn describe_scalar_into(e: &LfExpr, out: &mut String) {
    match e {
        LfExpr::Apply(op, args) => {
            use LfOp::*;
            match op {
                Hop => {
                    out.push_str("the ");
                    leaf_into(&args[1], out);
                    out.push_str(" of ");
                    describe_row_into(&args[0], out);
                }
                Count => {
                    out.push_str("the number of rows ");
                    view_np_into(&args[0], out);
                }
                Max => {
                    out.push_str("the highest ");
                    leaf_into(&args[1], out);
                    out.push(' ');
                    view_np_into(&args[0], out);
                }
                Min => {
                    out.push_str("the lowest ");
                    leaf_into(&args[1], out);
                    out.push(' ');
                    view_np_into(&args[0], out);
                }
                Sum => {
                    out.push_str("the total ");
                    leaf_into(&args[1], out);
                    out.push(' ');
                    view_np_into(&args[0], out);
                }
                Avg => {
                    out.push_str("the average ");
                    leaf_into(&args[1], out);
                    out.push(' ');
                    view_np_into(&args[0], out);
                }
                NthMax => {
                    out.push_str("the ");
                    ordinal_into(parse_ordinal(&args[2]), out);
                    out.push_str(" highest ");
                    leaf_into(&args[1], out);
                }
                NthMin => {
                    out.push_str("the ");
                    ordinal_into(parse_ordinal(&args[2]), out);
                    out.push_str(" lowest ");
                    leaf_into(&args[1], out);
                }
                Diff => {
                    out.push_str("the difference between ");
                    describe_scalar_into(&args[0], out);
                    out.push_str(" and ");
                    describe_scalar_into(&args[1], out);
                }
                _ => {
                    let _ = write!(out, "{e}");
                }
            }
        }
        other => leaf_into(other, out),
    }
}

/// Appends a row-producing subtree description.
fn describe_row_into(e: &LfExpr, out: &mut String) {
    match e {
        LfExpr::Apply(op, args) => {
            use LfOp::*;
            match op {
                Argmax => {
                    out.push_str("the row with the highest ");
                    leaf_into(&args[1], out);
                    out.push(' ');
                    view_np_into(&args[0], out);
                }
                Argmin => {
                    out.push_str("the row with the lowest ");
                    leaf_into(&args[1], out);
                    out.push(' ');
                    view_np_into(&args[0], out);
                }
                NthArgmax => {
                    out.push_str("the row with the ");
                    ordinal_into(parse_ordinal(&args[2]), out);
                    out.push_str(" highest ");
                    leaf_into(&args[1], out);
                }
                NthArgmin => {
                    out.push_str("the row with the ");
                    ordinal_into(parse_ordinal(&args[2]), out);
                    out.push_str(" lowest ");
                    leaf_into(&args[1], out);
                }
                FilterEq => {
                    // hop over a filter: identify the row by its filter
                    // value; text filters read naturally as the entity name
                    // ("P300"), numeric ones keep the column for clarity
                    // ("the row whose wins is 24").
                    let start = out.len();
                    leaf_into(&args[2], out);
                    if out[start..].parse::<f64>().is_ok() {
                        out.truncate(start);
                        out.push_str("the row whose ");
                        leaf_into(&args[1], out);
                        out.push_str(" is ");
                        leaf_into(&args[2], out);
                    }
                }
                _ => out.push_str("the selected row"),
            }
        }
        _ => out.push_str("the selected row"),
    }
}

/// View description as a trailing prepositional phrase ("among the rows
/// whose X is V"), nothing for all_rows. Uses a throwaway RNG so real draw
/// sequences are unaffected by view depth.
fn view_np_into(e: &LfExpr, out: &mut String) {
    let mut throwaway = rand::rngs::mock::StepRng::new(7, 11);
    let start = out.len();
    out.push_str("among the rows ");
    let clause_start = out.len();
    view_clause_into(e, &mut throwaway, out);
    if out.len() == clause_start {
        out.truncate(start);
    }
}

fn parse_ordinal(e: &LfExpr) -> usize {
    match e {
        LfExpr::Const(t) => t.parse().unwrap_or(1),
        _ => 1,
    }
}

fn realize_once_into(expr: &LfExpr, rng: &mut impl Rng, dst: &mut String, pool: &mut StrPool) {
    let mut raw = pool.take();
    claim_into(expr, rng, &mut raw, pool);
    finish_sentence(&raw, '.', dst);
    pool.put(raw);
}

/// Appends the raw (pre-tidy) claim text for the root operator.
fn claim_into(expr: &LfExpr, rng: &mut impl Rng, out: &mut String, pool: &mut StrPool) {
    use LfOp::*;
    match expr {
        LfExpr::Apply(op, args) => match op {
            Eq | RoundEq | NotEq => comparison_into(*op, &args[0], &args[1], rng, out, pool),
            Greater | Less => {
                // Draw order: comparative word first, copula second —
                // matching the historical form, where the comparative was
                // chosen before the format's copula draw.
                let cmp =
                    if matches!(op, Greater) { MORE_THAN.pick(rng) } else { LESS_THAN.pick(rng) };
                describe_scalar_into(&args[0], out);
                out.push(' ');
                out.push_str(IS_ARE.pick(rng));
                out.push(' ');
                out.push_str(cmp);
                out.push(' ');
                describe_scalar_into(&args[1], out);
            }
            And => {
                let mut a = pool.take();
                let mut b = pool.take();
                realize_once_into(&args[0], rng, &mut a, pool);
                realize_once_into(&args[1], rng, &mut b, pool);
                out.push_str(a.trim_end_matches(['.', '?']));
                out.push_str(" and ");
                let btrim = b.trim_end_matches(['.', '?']);
                let mut chars = btrim.chars();
                if let Some(first) = chars.next() {
                    out.extend(first.to_lowercase());
                    out.push_str(chars.as_str());
                }
                pool.put(b);
                pool.put(a);
            }
            Only => {
                out.push_str("there is only one row ");
                view_clause_into(&args[0], rng, out);
            }
            AllEq | AllNotEq | AllGreater | AllLess | AllGreaterEq | AllLessEq | MostEq
            | MostNotEq | MostGreater | MostLess | MostGreaterEq | MostLessEq => {
                let quant = if matches!(
                    op,
                    AllEq | AllNotEq | AllGreater | AllLess | AllGreaterEq | AllLessEq
                ) {
                    ALL_OF.pick(rng)
                } else {
                    MAJORITY.pick(rng)
                };
                out.push_str(quant);
                out.push_str(" rows");
                let inner_start = out.len();
                out.push(' ');
                let clause_start = out.len();
                view_clause_into(&args[0], rng, out);
                if out.len() == clause_start {
                    out.truncate(inner_start);
                }
                out.push_str(" have a ");
                leaf_into(&args[1], out);
                match op {
                    AllEq | MostEq => out.push_str(" of "),
                    AllNotEq | MostNotEq => out.push_str(" other than "),
                    AllGreater | MostGreater => {
                        out.push(' ');
                        out.push_str(MORE_THAN.pick(rng));
                        out.push(' ');
                    }
                    AllLess | MostLess => {
                        out.push(' ');
                        out.push_str(LESS_THAN.pick(rng));
                        out.push(' ');
                    }
                    AllGreaterEq | MostGreaterEq => out.push_str(" of at least "),
                    AllLessEq | MostLessEq => out.push_str(" of at most "),
                    // The outer arm admits only the quantifier ops above;
                    // any future op falls back to the eq frame.
                    _ => out.push_str(" of "),
                }
                leaf_into(&args[2], out);
            }
            _ => describe_scalar_into(expr, out),
        },
        other => leaf_into(other, out),
    }
}

fn comparison_into(
    op: LfOp,
    lhs: &LfExpr,
    rhs: &LfExpr,
    rng: &mut impl Rng,
    out: &mut String,
    pool: &mut StrPool,
) {
    use LfOp::*;
    // Count claims: "there are N rows ..."
    if let LfExpr::Apply(Count, count_args) = lhs {
        let mut clause = pool.take();
        view_clause_into(&count_args[0], rng, &mut clause);
        let frame = rng.gen_range(0..2);
        if op == NotEq {
            out.push_str("it is not the case that ");
        }
        if clause.is_empty() {
            match frame {
                0 => {
                    out.push_str("there are ");
                    leaf_into(rhs, out);
                    out.push_str(" rows in the table");
                }
                _ => {
                    out.push_str("the table has ");
                    leaf_into(rhs, out);
                    out.push_str(" rows");
                }
            }
        } else {
            match frame {
                0 => {
                    out.push_str("there are ");
                    leaf_into(rhs, out);
                    out.push_str(" rows ");
                    out.push_str(&clause);
                }
                _ => {
                    leaf_into(rhs, out);
                    out.push_str(" of the rows are ");
                    out.push_str(&clause);
                }
            }
        }
        pool.put(clause);
        return;
    }
    // Superlative / ordinal hop claims: "{v} has the highest {col}".
    if let LfExpr::Apply(Hop, hop_args) = lhs {
        if let LfExpr::Apply(inner_op, inner_args) = &hop_args[0] {
            if matches!(inner_op, Argmax | Argmin | NthArgmax | NthArgmin) {
                let mut adj = pool.take();
                match inner_op {
                    Argmax => adj.push_str(MOST.pick(rng)),
                    Argmin => adj.push_str(LEAST.pick(rng)),
                    NthArgmax => {
                        ordinal_into(parse_ordinal(&inner_args[2]), &mut adj);
                        adj.push_str(" highest");
                    }
                    NthArgmin => {
                        ordinal_into(parse_ordinal(&inner_args[2]), &mut adj);
                        adj.push_str(" lowest");
                    }
                    // Guarded by the matches! above; fall back to the
                    // superlative frame for any future row op.
                    _ => adj.push_str(MOST.pick(rng)),
                }
                let frame = rng.gen_range(0..2);
                if op == NotEq {
                    out.push_str("it is not the case that ");
                }
                match frame {
                    0 => {
                        out.push_str("the ");
                        leaf_into(&hop_args[1], out);
                        out.push_str(" with the ");
                        out.push_str(&adj);
                        out.push(' ');
                        leaf_into(&inner_args[1], out);
                        out.push(' ');
                        view_np_into(&inner_args[0], out);
                        out.push(' ');
                        out.push_str(IS_ARE.pick(rng));
                        out.push(' ');
                        leaf_into(rhs, out);
                    }
                    _ => {
                        leaf_into(rhs, out);
                        out.push_str(" has the ");
                        out.push_str(&adj);
                        out.push(' ');
                        leaf_into(&inner_args[1], out);
                        out.push(' ');
                        view_np_into(&inner_args[0], out);
                    }
                }
                pool.put(adj);
                return;
            }
        }
    }
    // Generic scalar comparison.
    if op == NotEq {
        out.push_str("it is not the case that ");
    }
    describe_scalar_into(lhs, out);
    out.push(' ');
    out.push_str(IS_ARE.pick(rng));
    out.push(' ');
    describe_scalar_into(rhs, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicforms::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `k` candidates through fresh buffers.
    fn candidates(expr: &LfExpr, seed: u64, k: usize) -> Vec<String> {
        let mut out = Vec::new();
        realize_logic(expr, &mut StdRng::seed_from_u64(seed), k, &mut out, &mut StrPool::default());
        out
    }

    fn realize(form: &str, seed: u64) -> String {
        let e = parse(form).unwrap_or_else(|e| panic!("parse: {e}"));
        candidates(&e, seed, 1).remove(0)
    }

    #[test]
    fn count_claim() {
        let c = realize("eq { count { filter_eq { all_rows ; material ; PLA } } ; 2 }", 1);
        let lower = c.to_lowercase();
        assert!(lower.contains('2'), "{c}");
        assert!(lower.contains("material"), "{c}");
        assert!(lower.contains("pla"), "{c}");
        assert!(c.ends_with('.'));
    }

    #[test]
    fn superlative_claim() {
        let c = realize("eq { hop { argmax { all_rows ; speed } ; model } ; P300 }", 2);
        let lower = c.to_lowercase();
        assert!(lower.contains("p300"), "{c}");
        assert!(lower.contains("speed"), "{c}");
        assert!(
            ["highest", "most", "greatest", "largest", "top", "maximum"]
                .iter()
                .any(|w| lower.contains(w)),
            "{c}"
        );
    }

    #[test]
    fn ordinal_claim() {
        let c = realize("eq { hop { nth_argmax { all_rows ; price ; 2 } ; model } ; P400 }", 3);
        assert!(c.to_lowercase().contains("second highest"), "{c}");
    }

    #[test]
    fn aggregation_claim() {
        let c = realize("round_eq { avg { all_rows ; price } ; 311.5 }", 4);
        let lower = c.to_lowercase();
        assert!(lower.contains("average") || lower.contains("mean"), "{c}");
        assert!(lower.contains("311.5"), "{c}");
    }

    #[test]
    fn majority_claim() {
        let c = realize("most_greater { all_rows ; speed ; 70 }", 5);
        let lower = c.to_lowercase();
        assert!(lower.contains("most of the") || lower.contains("majority"), "{c}");
        assert!(lower.contains("70"), "{c}");
    }

    #[test]
    fn all_claim() {
        let c = realize("all_greater { all_rows ; price ; 100 }", 6);
        let lower = c.to_lowercase();
        assert!(lower.contains("all") || lower.contains("every"), "{c}");
    }

    #[test]
    fn unique_claim() {
        let c = realize("only { filter_eq { all_rows ; material ; ABS } }", 7);
        let lower = c.to_lowercase();
        assert!(lower.contains("only one"), "{c}");
        assert!(lower.contains("abs"), "{c}");
    }

    #[test]
    fn comparative_claim() {
        let c = realize(
            "greater { hop { filter_eq { all_rows ; model ; P200 } ; price } ; hop { filter_eq { all_rows ; model ; P100 } ; price } }",
            8,
        );
        let lower = c.to_lowercase();
        assert!(lower.contains("p200"), "{c}");
        assert!(lower.contains("p100"), "{c}");
    }

    #[test]
    fn negated_claim() {
        let c = realize("not_eq { count { all_rows } ; 5 }", 9);
        assert!(c.to_lowercase().contains("not the case"), "{c}");
    }

    #[test]
    fn conjunction_claim() {
        let c = realize(
            "and { eq { count { all_rows } ; 4 } ; greater { max { all_rows ; speed } ; 90 } }",
            10,
        );
        assert!(c.contains(" and "), "{c}");
        assert_eq!(c.matches('.').count(), 1, "{c}");
    }

    #[test]
    fn filtered_view_clause() {
        let c = realize(
            "eq { count { filter_greater { filter_eq { all_rows ; material ; PLA } ; price ; 200 } } ; 1 }",
            11,
        );
        let lower = c.to_lowercase();
        assert!(lower.contains("pla") && lower.contains("200"), "{c}");
        assert!(lower.contains(" and "), "{c}");
    }

    #[test]
    fn candidates_vary() {
        let e = parse("eq { hop { argmax { all_rows ; speed } ; model } ; P300 }")
            .unwrap_or_else(|e| panic!("parse: {e}"));
        let cands = candidates(&e, 12, 8);
        assert!(cands.len() > 1, "{cands:?}");
    }

    #[test]
    fn pooled_form_matches_fresh_buffers() {
        let forms = [
            "eq { count { filter_eq { all_rows ; material ; PLA } } ; 2 }",
            "eq { hop { argmax { all_rows ; speed } ; model } ; P300 }",
            "eq { hop { nth_argmax { all_rows ; price ; 2 } ; model } ; P400 }",
            "round_eq { avg { all_rows ; price } ; 311.5 }",
            "most_greater { all_rows ; speed ; 70 }",
            "only { filter_eq { all_rows ; material ; ABS } }",
            "not_eq { count { all_rows } ; 5 }",
            "and { eq { count { all_rows } ; 4 } ; greater { max { all_rows ; speed } ; 90 } }",
            "greater { hop { filter_eq { all_rows ; model ; P200 } ; price } ; hop { filter_eq { all_rows ; model ; P100 } ; price } }",
            "all_less { filter_greater { all_rows ; price ; 10 } ; speed ; 99 }",
        ];
        let mut out = Vec::new();
        let mut pool = StrPool::default();
        for (i, form) in forms.iter().enumerate() {
            let e = parse(form).unwrap_or_else(|e| panic!("parse: {e}"));
            let fresh = candidates(&e, 90 + i as u64, 6);
            let mut rng = StdRng::seed_from_u64(90 + i as u64);
            realize_logic(&e, &mut rng, 6, &mut out, &mut pool);
            assert_eq!(out, fresh, "pooled candidates diverge for {form}");
        }
    }
}
