//! Surface realization of arithmetic expressions into questions.
//!
//! FinQA-style programs map to numeracy questions through idiom detection:
//! `subtract(a,b), divide(#0,b)` is a *percentage change* question,
//! `add(a,b), divide(#0,2)` an *average*, a bare `subtract` a *difference*,
//! and so on — the same mapping the paper highlights in Table IX row 3,
//! where the generator correctly renders subtract-then-divide as
//! "by what percentage did ... change".
//!
//! Candidates stream into pooled buffers (see [`StrPool`]); RNG draw order
//! matches the historical compositional form draw for draw.

use crate::lexicon::*;
use crate::pool::StrPool;
use crate::sql_gen::{dedup_pooled, fill_slots};
use arithexpr::{AeArg, AeOp, AeProgram};
use rand::Rng;
use std::fmt::Write as _;

/// Writes `k` candidate questions for an instantiated program into `out`
/// (replacing its contents), with temporaries from `pool`; a reused `out`
/// and `pool` give the same candidates as fresh ones.
pub fn realize_arith(
    program: &AeProgram,
    rng: &mut impl Rng,
    k: usize,
    out: &mut Vec<String>,
    pool: &mut StrPool,
) {
    fill_slots(out, pool, k.max(1));
    for slot in out.iter_mut() {
        let mut dst = std::mem::take(slot);
        let mut raw = pool.take();
        raw_question_into(program, rng, &mut raw);
        finish_sentence(&raw, '?', &mut dst);
        pool.put(raw);
        *slot = dst;
    }
    dedup_pooled(out, pool);
}

/// Appends a cell argument as a noun phrase ("the revenue of 2019").
fn arg_into(a: &AeArg, out: &mut String) {
    match a {
        AeArg::Const(n) => {
            let _ = write!(out, "{}", tabular::format_number(*n));
        }
        AeArg::StepRef(i) => {
            let _ = write!(out, "the result of step {i}");
        }
        AeArg::Cell { col, row } => {
            out.push_str("the ");
            out.push_str(col);
            out.push_str(" of ");
            out.push_str(row);
        }
        AeArg::Column(c) => {
            out.push_str("the ");
            out.push_str(c);
            out.push_str(" column");
        }
        AeArg::CellHole(i) => {
            let _ = write!(out, "value {i}");
        }
        AeArg::ColumnHole(i) => {
            let _ = write!(out, "column {i}");
        }
    }
}

/// For percentage-change phrasing we want "from {row_b} to {row_a}" when the
/// two cells share a column (two periods of the same line item) or share a
/// row (two items in the same period). Returns the change subject (rendered
/// as "the {subject}") and the from/to endpoints.
fn change_endpoints<'a>(a: &'a AeArg, b: &'a AeArg) -> Option<(&'a str, &'a str, &'a str)> {
    if let (AeArg::Cell { col: ca, row: ra }, AeArg::Cell { col: cb, row: rb }) = (a, b) {
        if ra.eq_ignore_ascii_case(rb) {
            // same line item, different period columns
            return Some((ra, cb, ca));
        }
        if ca.eq_ignore_ascii_case(cb) {
            // same column, different line items/rows
            return Some((ca, rb, ra));
        }
    }
    None
}

fn raw_question_into(program: &AeProgram, rng: &mut impl Rng, out: &mut String) {
    let steps = &program.steps;

    // Idiom: percentage change = subtract(a, b), divide(#0, b).
    if steps.len() == 2
        && steps[0].op == AeOp::Subtract
        && steps[1].op == AeOp::Divide
        && steps[1].args[0] == AeArg::StepRef(0)
        && steps[1].args[1] == steps[0].args[1]
    {
        let (a, b) = (&steps[0].args[0], &steps[0].args[1]);
        if let Some((subject, from, to)) = change_endpoints(a, b) {
            match rng.gen_range(0..2) {
                0 => {
                    out.push_str(WHAT_IS.pick(rng));
                    out.push_str(" the ");
                    out.push_str(PCT_CHANGE.pick(rng));
                    out.push_str(" in the ");
                    out.push_str(subject);
                    out.push_str(" from ");
                    out.push_str(from);
                    out.push_str(" to ");
                    out.push_str(to);
                }
                _ => {
                    out.push_str("by what percentage did the ");
                    out.push_str(subject);
                    out.push_str(" change between ");
                    out.push_str(from);
                    out.push_str(" and ");
                    out.push_str(to);
                }
            }
        } else {
            out.push_str(WHAT_IS.pick(rng));
            out.push_str(" the ");
            out.push_str(PCT_CHANGE.pick(rng));
            out.push_str(" from ");
            arg_into(b, out);
            out.push_str(" to ");
            arg_into(a, out);
        }
        return;
    }

    // Idiom: average of two values = add(a, b), divide(#0, 2).
    if steps.len() == 2
        && steps[0].op == AeOp::Add
        && steps[1].op == AeOp::Divide
        && steps[1].args[0] == AeArg::StepRef(0)
        && steps[1].args[1] == AeArg::Const(2.0)
    {
        out.push_str(WHAT_IS.pick(rng));
        out.push_str(" the ");
        out.push_str(AVERAGE.pick(rng));
        out.push_str(" of ");
        arg_into(&steps[0].args[0], out);
        out.push_str(" and ");
        arg_into(&steps[0].args[1], out);
        return;
    }

    // Single-step idioms.
    if steps.len() == 1 {
        let step = &steps[0];
        match step.op {
            AeOp::Subtract => {
                let (a, b) = (&step.args[0], &step.args[1]);
                if let Some((subject, from, to)) = change_endpoints(a, b) {
                    out.push_str(WHAT_IS.pick(rng));
                    out.push_str(" the ");
                    out.push_str(DIFFERENCE.pick(rng));
                    out.push_str(" in the ");
                    out.push_str(subject);
                    out.push_str(" from ");
                    out.push_str(from);
                    out.push_str(" to ");
                    out.push_str(to);
                } else {
                    out.push_str(WHAT_IS.pick(rng));
                    out.push_str(" the ");
                    out.push_str(DIFFERENCE.pick(rng));
                    out.push_str(" between ");
                    arg_into(a, out);
                    out.push_str(" and ");
                    arg_into(b, out);
                }
            }
            AeOp::Add => {
                out.push_str(WHAT_IS.pick(rng));
                out.push_str(" the ");
                out.push_str(TOTAL.pick(rng));
                out.push_str(" of ");
                arg_into(&step.args[0], out);
                out.push_str(" and ");
                arg_into(&step.args[1], out);
            }
            AeOp::Multiply => {
                out.push_str(WHAT_IS.pick(rng));
                out.push_str(" the product of ");
                arg_into(&step.args[0], out);
                out.push_str(" and ");
                arg_into(&step.args[1], out);
            }
            AeOp::Divide => {
                out.push_str(WHAT_IS.pick(rng));
                out.push_str(" the ratio of ");
                arg_into(&step.args[0], out);
                out.push_str(" to ");
                arg_into(&step.args[1], out);
            }
            AeOp::Greater => {
                out.push_str("was ");
                arg_into(&step.args[0], out);
                out.push(' ');
                out.push_str(MORE_THAN.pick(rng));
                out.push(' ');
                arg_into(&step.args[1], out);
            }
            AeOp::Exp => {
                out.push_str(WHAT_IS.pick(rng));
                out.push(' ');
                arg_into(&step.args[0], out);
                out.push_str(" raised to the power of ");
                arg_into(&step.args[1], out);
            }
            AeOp::TableMax => {
                out.push_str(WHAT_IS.pick(rng));
                out.push_str(" the ");
                out.push_str(MOST.pick(rng));
                out.push_str(" value in ");
                arg_into(&step.args[0], out);
            }
            AeOp::TableMin => {
                out.push_str(WHAT_IS.pick(rng));
                out.push_str(" the ");
                out.push_str(LEAST.pick(rng));
                out.push_str(" value in ");
                arg_into(&step.args[0], out);
            }
            AeOp::TableSum => {
                out.push_str(WHAT_IS.pick(rng));
                out.push_str(" the ");
                out.push_str(TOTAL.pick(rng));
                out.push_str(" of all values in ");
                arg_into(&step.args[0], out);
            }
            AeOp::TableAverage => {
                out.push_str(WHAT_IS.pick(rng));
                out.push_str(" the ");
                out.push_str(AVERAGE.pick(rng));
                out.push_str(" of the values in ");
                arg_into(&step.args[0], out);
            }
        }
        return;
    }

    // Generic multi-step fallback: describe the final step with its inputs
    // expanded recursively.
    out.push_str(WHAT_IS.pick(rng));
    out.push(' ');
    describe_step_into(program, steps.len() - 1, out);
}

/// Recursively appends a step description, inlining `#N` references.
fn describe_step_into(program: &AeProgram, idx: usize, out: &mut String) {
    let step = &program.steps[idx];
    fn arg(program: &AeProgram, a: &AeArg, out: &mut String) {
        match a {
            AeArg::StepRef(i) => describe_step_into(program, *i, out),
            other => arg_into(other, out),
        }
    }
    match step.op {
        AeOp::Add => {
            out.push_str("the sum of ");
            arg(program, &step.args[0], out);
            out.push_str(" and ");
            arg(program, &step.args[1], out);
        }
        AeOp::Subtract => {
            arg(program, &step.args[0], out);
            out.push_str(" minus ");
            arg(program, &step.args[1], out);
        }
        AeOp::Multiply => {
            arg(program, &step.args[0], out);
            out.push_str(" times ");
            arg(program, &step.args[1], out);
        }
        AeOp::Divide => {
            arg(program, &step.args[0], out);
            out.push_str(" divided by ");
            arg(program, &step.args[1], out);
        }
        AeOp::Greater => {
            out.push_str("whether ");
            arg(program, &step.args[0], out);
            out.push_str(" exceeds ");
            arg(program, &step.args[1], out);
        }
        AeOp::Exp => {
            arg(program, &step.args[0], out);
            out.push_str(" to the power of ");
            arg(program, &step.args[1], out);
        }
        AeOp::TableMax => {
            out.push_str("the maximum of ");
            arg(program, &step.args[0], out);
        }
        AeOp::TableMin => {
            out.push_str("the minimum of ");
            arg(program, &step.args[0], out);
        }
        AeOp::TableSum => {
            out.push_str("the total of ");
            arg(program, &step.args[0], out);
        }
        AeOp::TableAverage => {
            out.push_str("the average of ");
            arg(program, &step.args[0], out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arithexpr::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `k` candidates through fresh buffers.
    fn candidates(program: &AeProgram, seed: u64, k: usize) -> Vec<String> {
        let mut out = Vec::new();
        realize_arith(
            program,
            &mut StdRng::seed_from_u64(seed),
            k,
            &mut out,
            &mut StrPool::default(),
        );
        out
    }

    fn realize(p: &str, seed: u64) -> String {
        let program = parse(p).unwrap_or_else(|e| panic!("parse: {e}"));
        candidates(&program, seed, 1).remove(0)
    }

    #[test]
    fn percentage_change_idiom() {
        let q = realize(
            "subtract( the 2019 of Stockholders' equity , the 2018 of Stockholders' equity ), divide( #0 , the 2018 of Stockholders' equity )",
            1,
        );
        let lower = q.to_lowercase();
        assert!(lower.contains("percent") || lower.contains("relative change"), "{q}");
        assert!(lower.contains("2018") && lower.contains("2019"), "{q}");
        assert!(lower.contains("stockholders"), "{q}");
        assert!(q.ends_with('?'));
    }

    #[test]
    fn percentage_change_orders_from_to() {
        // subtract(new=2019, old=2018): the question must read "from 2018 to 2019".
        let q = realize(
            "subtract( the 2019 of Revenue , the 2018 of Revenue ), divide( #0 , the 2018 of Revenue )",
            2,
        );
        let lower = q.to_lowercase();
        if let (Some(f), Some(t)) = (lower.find("2018"), lower.find("2019")) {
            assert!(f < t, "{q}");
        }
    }

    #[test]
    fn difference_idiom() {
        let q = realize("subtract( the 2019 of Revenue , the 2018 of Revenue )", 3);
        let lower = q.to_lowercase();
        assert!(["difference", "change", "gap"].iter().any(|w| lower.contains(w)), "{q}");
    }

    #[test]
    fn total_idiom() {
        let q = realize("add( the 2019 of Revenue , the 2018 of Revenue )", 4);
        let lower = q.to_lowercase();
        assert!(["total", "sum", "combined"].iter().any(|w| lower.contains(w)), "{q}");
    }

    #[test]
    fn average_of_two_idiom() {
        let q = realize("add( the 2019 of Revenue , the 2018 of Revenue ), divide( #0 , 2 )", 5);
        let lower = q.to_lowercase();
        assert!(lower.contains("average") || lower.contains("mean"), "{q}");
    }

    #[test]
    fn ratio_idiom() {
        let q = realize("divide( the 2019 of Revenue , the 2019 of Costs )", 6);
        assert!(q.to_lowercase().contains("ratio"), "{q}");
    }

    #[test]
    fn greater_question() {
        let q = realize("greater( the 2019 of Revenue , the 2018 of Revenue )", 7);
        let lower = q.to_lowercase();
        assert!(lower.starts_with("was"), "{q}");
    }

    #[test]
    fn table_op_questions() {
        let q = realize("table_sum( 2019 )", 8);
        let lower = q.to_lowercase();
        assert!(lower.contains("2019"), "{q}");
        assert!(["total", "sum", "combined"].iter().any(|w| lower.contains(w)), "{q}");
    }

    #[test]
    fn generic_fallback_multi_step() {
        let q = realize(
            "table_sum( 2019 ) , subtract( #0 , the 2018 of Revenue ) , divide( #1 , 100 )",
            9,
        );
        let lower = q.to_lowercase();
        assert!(lower.contains("divided by 100"), "{q}");
        assert!(lower.contains("minus"), "{q}");
    }

    #[test]
    fn candidates_vary() {
        let p = parse("subtract( the 2019 of Revenue , the 2018 of Revenue )")
            .unwrap_or_else(|e| panic!("parse: {e}"));
        let cands = candidates(&p, 10, 8);
        assert!(cands.len() > 1, "{cands:?}");
    }

    #[test]
    fn pooled_form_matches_fresh_buffers() {
        let programs = [
            "subtract( the 2019 of Revenue , the 2018 of Revenue ), divide( #0 , the 2018 of Revenue )",
            "subtract( the 2019 of Revenue , the 2018 of Costs ), divide( #0 , the 2018 of Costs )",
            "add( the 2019 of Revenue , the 2018 of Revenue ), divide( #0 , 2 )",
            "subtract( the 2019 of Revenue , the 2018 of Revenue )",
            "divide( the 2019 of Revenue , the 2019 of Costs )",
            "greater( the 2019 of Revenue , the 2018 of Revenue )",
            "table_sum( 2019 )",
            "table_sum( 2019 ) , subtract( #0 , the 2018 of Revenue ) , divide( #1 , 100 )",
        ];
        let mut out = Vec::new();
        let mut pool = StrPool::default();
        for (i, p) in programs.iter().enumerate() {
            let program = parse(p).unwrap_or_else(|e| panic!("parse: {e}"));
            let fresh = candidates(&program, 70 + i as u64, 6);
            let mut rng = StdRng::seed_from_u64(70 + i as u64);
            realize_arith(&program, &mut rng, 6, &mut out, &mut pool);
            assert_eq!(out, fresh, "pooled candidates diverge for {p}");
        }
    }
}
