//! Annotator simulator: gold-label generation with human-style phrasing.
//!
//! The experiments need benchmark datasets whose gold labels did not come
//! from the system under test. This module plays the human annotator: it
//! writes questions/claims against a table using **its own surface
//! phrasings** (partially overlapping UCTR's generator, as real human
//! phrasing partially overlaps synthetic data — that overlap gap is exactly
//! what separates supervised from unsupervised performance in the paper's
//! tables), and derives labels from program execution over a richer,
//! private template pool.

use arithexpr::AeScratch;
use logicforms::{LfExpr, LfOp, LfScratch};
use rand::seq::SliceRandom;
use rand::Rng;
use sqlexec::{
    AggFunc, CmpOp, ColumnRef, Cond, Expr, OrderDir, SelectItem, SelectStmt, SqlScratch,
};
use tabular::{ExecContext, Table};
use uctr::{AnswerKind, EvidenceType, ProgramKind, Sample, TemplateBank, Verdict};

/// Gold-only template extensions: reasoning shapes UCTR's builtin bank does
/// not contain, creating the headroom between unsupervised and supervised
/// scores.
const GOLD_EXTRA_SQL: &[&str] = &[
    "select c1 from w where c2_number >= val1 and c2_number <= val2",
    "select c1 from w where c2 = val1 order by c3_number asc limit 1",
    "select count ( * ) from w where c1 = val1 and c2_number > val2",
];
const GOLD_EXTRA_LOGIC: &[&str] = &[
    "and { eq { hop { argmax { all_rows ; c1 } ; c2 } ; val1 } ; greater { max { all_rows ; c1 } ; val2 } }",
    "most_not_eq { all_rows ; c1 ; val1 }",
    "eq { count { filter_less { all_rows ; c1 ; val1 } } ; val2 }",
];

/// The annotator's private template bank.
pub fn gold_bank() -> TemplateBank {
    let mut bank = TemplateBank::builtin();
    // Every gold extra parses and is admitted — `gold_bank_is_superset_of_builtin`
    // pins the exact counts — so the Err arms drop nothing.
    for t in GOLD_EXTRA_SQL {
        if let Ok(t) = sqlexec::SqlTemplate::parse(t) {
            bank.add_sql(t);
        }
    }
    for t in GOLD_EXTRA_LOGIC {
        if let Ok(t) = logicforms::LfTemplate::parse(t) {
            bank.add_logic(t);
        }
    }
    bank
}

// ---------------------------------------------------------------------------
// Human-style surface realization (distinct frame bank from nlgen).
// ---------------------------------------------------------------------------

fn col_of(c: &ColumnRef) -> String {
    match c {
        ColumnRef::Named(n) => n.clone(),
        ColumnRef::Placeholder { index, .. } => format!("column {index}"),
    }
}

fn expr_np(e: &Expr) -> String {
    match e {
        Expr::Column(c) => col_of(c),
        Expr::Literal(v) => v.to_string(),
        Expr::ValuePlaceholder(i) => format!("value {i}"),
        Expr::Binary { lhs, rhs, .. } => format!("{} and {}", expr_np(lhs), expr_np(rhs)),
    }
}

fn human_cond(c: &Cond) -> String {
    match c {
        Cond::Compare { op, lhs, rhs } => {
            let l = expr_np(lhs);
            let r = expr_np(rhs);
            match op {
                CmpOp::Eq => format!("{l} equals {r}"),
                CmpOp::NotEq => format!("{l} differs from {r}"),
                CmpOp::Gt => format!("{l} exceeds {r}"),
                CmpOp::Lt => format!("{l} stays below {r}"),
                CmpOp::GtEq => format!("{l} reaches at least {r}"),
                CmpOp::LtEq => format!("{l} stays within {r}"),
            }
        }
        Cond::And(a, b) => format!("{} while {}", human_cond(a), human_cond(b)),
        Cond::Or(a, b) => format!("either {} or {}", human_cond(a), human_cond(b)),
    }
}

/// Topic-specific question idioms. Real benchmark questions use
/// domain-bound constructions ("which team tops the standings", "which
/// album charted longest") that models must learn per topic — the source of
/// the topic-transfer degradation the paper motivates with Figure 1. Each
/// idiom deliberately avoids the generic cue vocabulary so it can only be
/// learned lexically from in-topic training data.
fn domain_superlative(topic: &str, desc: bool) -> Option<&'static str> {
    Some(match (topic, desc) {
        ("sports", true) => "finished the season strongest in",
        ("sports", false) => "finished the season weakest in",
        ("films", true) => "drew the biggest numbers for",
        ("films", false) => "drew the slimmest numbers for",
        ("politics", true) => "commands the heaviest",
        ("politics", false) => "commands the lightest",
        ("geography", true) => "stretches furthest in",
        ("geography", false) => "stretches narrowest in",
        ("music", true) => "charted strongest in",
        ("music", false) => "charted weakest in",
        _ => return None,
    })
}

/// Topic idiom for counting questions ("how many <domain noun> ...").
fn domain_count(topic: &str) -> Option<&'static str> {
    Some(match topic {
        "sports" => "how big is the roster of squads for which",
        "films" => "how long is the slate of pictures for which",
        "politics" => "how wide is the roll of agencies for which",
        "geography" => "how long is the register of nations for which",
        "music" => "how deep is the catalog of records for which",
        _ => return None,
    })
}

/// Topic idiom for plain lookups.
fn domain_lookup(topic: &str) -> Option<&'static str> {
    Some(match topic {
        "sports" => "pull up the",
        "films" => "look up the billing for the",
        "politics" => "read off the",
        "geography" => "look across to the",
        "music" => "read out the",
        _ => return None,
    })
}

/// Human phrasing of an instantiated SQL query, with optional
/// topic-idiomatic variants.
pub fn human_sql_question_for_topic(stmt: &SelectStmt, topic: &str, rng: &mut impl Rng) -> String {
    let use_idiom = rng.gen_bool(0.8);
    // Superlative questions.
    if let (Some((Expr::Column(oc), dir)), Some(1)) = (&stmt.order_by, stmt.limit) {
        if let Some(SelectItem::Expr(Expr::Column(sel))) = stmt.items.first() {
            if stmt.where_clause.is_none() && use_idiom {
                if let Some(idiom) = domain_superlative(topic, *dir == OrderDir::Desc) {
                    return finish(&format!("which {} {idiom} {}", col_of(sel), col_of(oc)), '?');
                }
            }
        }
    }
    // Counting questions.
    if let Some(SelectItem::Aggregate { func: AggFunc::Count, .. }) = stmt.items.first() {
        if use_idiom {
            if let (Some(idiom), Some(w)) = (domain_count(topic), &stmt.where_clause) {
                return finish(&format!("{idiom} {}", human_cond(w)), '?');
            }
        }
    }
    // Plain lookups.
    if let Some(SelectItem::Expr(Expr::Column(sel))) = stmt.items.first() {
        if stmt.order_by.is_none() && use_idiom {
            if let (Some(idiom), Some(w)) = (domain_lookup(topic), &stmt.where_clause) {
                return finish(
                    &format!("{idiom} {} for the entry where {}", col_of(sel), human_cond(w)),
                    '?',
                );
            }
        }
    }
    human_sql_question(stmt, rng)
}

/// Human phrasing of an instantiated SQL query.
pub fn human_sql_question(stmt: &SelectStmt, rng: &mut impl Rng) -> String {
    let cond = stmt.where_clause.as_ref().map(human_cond);
    // Superlative.
    if let (Some((Expr::Column(oc), dir)), Some(1)) = (&stmt.order_by, stmt.limit) {
        if let Some(SelectItem::Expr(Expr::Column(sel))) = stmt.items.first() {
            let adj = match (dir, rng.gen_range(0..2)) {
                (OrderDir::Desc, 0) => "tops the table in",
                (OrderDir::Desc, _) => "leads in",
                (OrderDir::Asc, 0) => "sits last in",
                (OrderDir::Asc, _) => "trails in",
            };
            let base = format!("name the {} that {adj} {}", col_of(sel), col_of(oc));
            let q = match cond {
                Some(w) => format!("{base}, considering only rows where {w}"),
                None => base,
            };
            return finish(&q, '?');
        }
    }
    if let Some(SelectItem::Aggregate { func, arg, .. }) = stmt.items.first() {
        let q = match (func, arg) {
            (AggFunc::Count, _) => match cond {
                Some(w) => format!("count the entries in which {w}"),
                None => "count the entries in the table".to_string(),
            },
            (f, Some(e)) => {
                let noun = match f {
                    AggFunc::Sum => "combined",
                    AggFunc::Avg => "typical",
                    AggFunc::Min => "smallest recorded",
                    AggFunc::Max => "largest recorded",
                    // Count is fully handled by the arm above.
                    AggFunc::Count => "counted",
                };
                match cond {
                    Some(w) => format!("give the {noun} {} across rows where {w}", expr_np(e)),
                    None => format!("give the {noun} {} across the table", expr_np(e)),
                }
            }
            _ => "give the result".to_string(),
        };
        return finish(&q, '?');
    }
    if let Some(SelectItem::Expr(Expr::Binary { op: sqlexec::ArithOp::Sub, lhs, rhs })) =
        stmt.items.first()
    {
        let q = match cond {
            Some(w) => {
                format!("by how much does {} differ from {} where {w}", expr_np(lhs), expr_np(rhs))
            }
            None => format!("by how much does {} differ from {}", expr_np(lhs), expr_np(rhs)),
        };
        return finish(&q, '?');
    }
    if let Some(SelectItem::Expr(e)) = stmt.items.first() {
        let q = match cond {
            Some(w) => match rng.gen_range(0..2) {
                0 => format!("tell me the {} recorded where {w}", expr_np(e)),
                _ => format!("the row in which {w} lists which {}", expr_np(e)),
            },
            None => format!("list every {}", expr_np(e)),
        };
        return finish(&q, '?');
    }
    finish("what does the table show", '?')
}

/// Human phrasing of an instantiated logical form.
pub fn human_logic_claim(expr: &LfExpr, rng: &mut impl Rng) -> String {
    use LfOp::*;
    let text = match expr {
        LfExpr::Apply(op, args) => match op {
            Eq | RoundEq | NotEq => human_comparison(*op, &args[0], &args[1], rng),
            Greater | Less => {
                let a = scalar_np(&args[0]);
                let b = scalar_np(&args[1]);
                if matches!(op, Greater) {
                    format!("{a} comes out ahead of {b}")
                } else {
                    format!("{a} falls short of {b}")
                }
            }
            And => {
                let a = human_logic_claim(&args[0], rng);
                let b = human_logic_claim(&args[1], rng);
                format!(
                    "{}, and furthermore {}",
                    a.trim_end_matches('.'),
                    lowercase_first(b.trim_end_matches('.'))
                )
            }
            Only => format!("a single entry {}", clause(&args[0])),
            AllEq | AllNotEq | AllGreater | AllLess | AllGreaterEq | AllLessEq | MostEq
            | MostNotEq | MostGreater | MostLess | MostGreaterEq | MostLessEq => {
                let quant = if matches!(
                    op,
                    MostEq | MostNotEq | MostGreater | MostLess | MostGreaterEq | MostLessEq
                ) {
                    "more than half of the entries"
                } else {
                    "without exception, the entries"
                };
                let col = leaf(&args[1]);
                let val = leaf(&args[2]);
                let pred = match op {
                    AllEq | MostEq => format!("record {val} for {col}"),
                    AllNotEq | MostNotEq => format!("record something other than {val} for {col}"),
                    AllGreater | MostGreater => format!("put {col} beyond {val}"),
                    AllLess | MostLess => format!("keep {col} beneath {val}"),
                    AllGreaterEq | MostGreaterEq => format!("reach {val} or more in {col}"),
                    AllLessEq | MostLessEq => format!("stay at {val} or less in {col}"),
                    // The enclosing match admits only the quantifier ops.
                    _ => format!("meet the stated bound on {col}"),
                };
                format!("{quant} {pred}")
            }
            _ => scalar_np(expr),
        },
        other => leaf(other),
    };
    finish(&text, '.')
}

fn human_comparison(op: LfOp, lhs: &LfExpr, rhs: &LfExpr, rng: &mut impl Rng) -> String {
    use LfOp::*;
    if let LfExpr::Apply(Count, cargs) = lhs {
        let n = leaf(rhs);
        let cl = clause(&cargs[0]);
        let body = if cl.is_empty() {
            format!("the table holds {n} entries")
        } else {
            match rng.gen_range(0..2) {
                0 => format!("a total of {n} entries {cl}"),
                _ => format!("exactly {n} of the entries {cl}"),
            }
        };
        return if op == NotEq { format!("it is false that {body}") } else { body };
    }
    if let LfExpr::Apply(Hop, hargs) = lhs {
        if let LfExpr::Apply(inner, iargs) = &hargs[0] {
            if matches!(inner, Argmax | Argmin | NthArgmax | NthArgmin) {
                let v = leaf(rhs);
                let sort_col = leaf(&iargs[1]);
                let phrase = match inner {
                    Argmax => format!("no entry posts a higher {sort_col} than {v}"),
                    Argmin => format!("no entry posts a lower {sort_col} than {v}"),
                    NthArgmax => {
                        format!("{v} ranks number {} from the top in {sort_col}", leaf(&iargs[2]))
                    }
                    NthArgmin => format!(
                        "{v} ranks number {} from the bottom in {sort_col}",
                        leaf(&iargs[2])
                    ),
                    // The `matches!` guard admits only the four arg ops.
                    _ => format!("{v} is the selected entry's {sort_col}"),
                };
                return if op == NotEq { format!("it is false that {phrase}") } else { phrase };
            }
        }
    }
    let body = format!("{} works out to {}", scalar_np(lhs), leaf(rhs));
    if op == NotEq {
        format!("it is false that {body}")
    } else {
        body
    }
}

fn clause(view: &LfExpr) -> String {
    use LfOp::*;
    match view {
        LfExpr::AllRows => String::new(),
        LfExpr::Apply(op, args) => {
            let inner = clause(&args[0]);
            let this = match op {
                FilterEq => format!("list {} as their {}", leaf(&args[2]), leaf(&args[1])),
                FilterNotEq => format!("avoid {} in {}", leaf(&args[2]), leaf(&args[1])),
                FilterGreater => format!("push {} past {}", leaf(&args[1]), leaf(&args[2])),
                FilterLess => format!("keep {} beneath {}", leaf(&args[1]), leaf(&args[2])),
                FilterGreaterEq => {
                    format!("reach {} or more in {}", leaf(&args[2]), leaf(&args[1]))
                }
                FilterLessEq => format!("stay at {} or less in {}", leaf(&args[2]), leaf(&args[1])),
                FilterAll => format!("report a {}", leaf(&args[1])),
                _ => return inner,
            };
            if inner.is_empty() {
                this
            } else {
                format!("{inner} and {this}")
            }
        }
        _ => String::new(),
    }
}

fn scalar_np(e: &LfExpr) -> String {
    use LfOp::*;
    match e {
        LfExpr::Apply(op, args) => match op {
            Hop => format!("the {} recorded for {}", leaf(&args[1]), row_np(&args[0])),
            Count => "the number of matching entries".to_string(),
            Max => format!("the peak {}", leaf(&args[1])),
            Min => format!("the floor {}", leaf(&args[1])),
            Sum => format!("the overall {}", leaf(&args[1])),
            Avg => format!("the typical {}", leaf(&args[1])),
            NthMax => format!("the number {} {} from the top", leaf(&args[2]), leaf(&args[1])),
            NthMin => format!("the number {} {} from the bottom", leaf(&args[2]), leaf(&args[1])),
            Diff => format!("the gap between {} and {}", scalar_np(&args[0]), scalar_np(&args[1])),
            _ => e.to_string(),
        },
        other => leaf(other),
    }
}

fn row_np(e: &LfExpr) -> String {
    use LfOp::*;
    match e {
        LfExpr::Apply(op, args) => match op {
            FilterEq => leaf(&args[2]),
            Argmax => format!("the leader in {}", leaf(&args[1])),
            Argmin => format!("the last-place entry in {}", leaf(&args[1])),
            NthArgmax => format!("the rank-{} entry in {}", leaf(&args[2]), leaf(&args[1])),
            NthArgmin => {
                format!("the rank-{} entry from the bottom in {}", leaf(&args[2]), leaf(&args[1]))
            }
            _ => "that entry".to_string(),
        },
        _ => "that entry".to_string(),
    }
}

fn leaf(e: &LfExpr) -> String {
    match e {
        LfExpr::Column(c) => c.clone(),
        LfExpr::Const(v) => v.clone(),
        other => other.to_string(),
    }
}

/// Human phrasing of an instantiated arithmetic program.
pub fn human_arith_question(program: &arithexpr::AeProgram, rng: &mut impl Rng) -> String {
    use arithexpr::{AeArg, AeOp};
    let steps = &program.steps;
    let cell = |a: &AeArg| -> String {
        match a {
            AeArg::Cell { col, row } => format!("{row}'s {col} figure"),
            AeArg::Const(n) => tabular::format_number(*n),
            AeArg::Column(c) => format!("the {c} column"),
            other => other.to_string(),
        }
    };
    // percentage change idiom
    if steps.len() == 2
        && steps[0].op == AeOp::Subtract
        && steps[1].op == AeOp::Divide
        && steps[1].args[0] == AeArg::StepRef(0)
        && steps[1].args[1] == steps[0].args[1]
    {
        if let (AeArg::Cell { col: ca, row: ra }, AeArg::Cell { col: cb, row: rb }) =
            (&steps[0].args[0], &steps[0].args[1])
        {
            let q = if ra.eq_ignore_ascii_case(rb) {
                format!("in percentage terms, how did {ra} move between {cb} and {ca}")
            } else {
                format!("in percentage terms, how did {ca} move from {rb} to {ra}")
            };
            return finish(&q, '?');
        }
        return finish("in percentage terms, how did the figure move", '?');
    }
    // two-value average idiom: add(a, b), divide(#0, 2)
    if steps.len() == 2
        && steps[0].op == AeOp::Add
        && steps[1].op == AeOp::Divide
        && steps[1].args[0] == AeArg::StepRef(0)
        && steps[1].args[1] == AeArg::Const(2.0)
    {
        let q = format!(
            "taken together, what do {} and {} average out to",
            cell(&steps[0].args[0]),
            cell(&steps[0].args[1])
        );
        return finish(&q, '?');
    }
    // proportion idiom: table_sum(c), divide(val, #0)
    if steps.len() == 2
        && steps[0].op == AeOp::TableSum
        && steps[1].op == AeOp::Divide
        && steps[1].args[1] == AeArg::StepRef(0)
    {
        let q = format!(
            "what share of {} does {} account for",
            cell(&steps[0].args[0]),
            cell(&steps[1].args[0])
        );
        return finish(&q, '?');
    }
    // sum-difference idiom: table_sum(a), table_sum(b), subtract(#0, #1)
    if steps.len() == 3
        && steps[0].op == AeOp::TableSum
        && steps[1].op == AeOp::TableSum
        && steps[2].op == AeOp::Subtract
        && steps[2].args[0] == AeArg::StepRef(0)
        && steps[2].args[1] == AeArg::StepRef(1)
    {
        let q = format!(
            "how much larger is the sum of {} than the sum of {}",
            cell(&steps[0].args[0]),
            cell(&steps[1].args[0])
        );
        return finish(&q, '?');
    }
    if steps.len() == 1 {
        let s = &steps[0];
        let q = match s.op {
            AeOp::Subtract => {
                format!("how far apart are {} and {}", cell(&s.args[0]), cell(&s.args[1]))
            }
            AeOp::Add => format!("adding {} to {} gives what", cell(&s.args[1]), cell(&s.args[0])),
            AeOp::Multiply => {
                format!("multiplying {} by {} gives what", cell(&s.args[0]), cell(&s.args[1]))
            }
            AeOp::Divide => {
                format!("how many times does {} fit into {}", cell(&s.args[1]), cell(&s.args[0]))
            }
            AeOp::Greater => format!("does {} top {}", cell(&s.args[0]), cell(&s.args[1])),
            AeOp::Exp => {
                format!("what does {} to the power {} equal", cell(&s.args[0]), cell(&s.args[1]))
            }
            AeOp::TableMax => format!("where does {} peak", cell(&s.args[0])),
            AeOp::TableMin => format!("what is the floor of {}", cell(&s.args[0])),
            AeOp::TableSum => format!("adding up {} gives what", cell(&s.args[0])),
            AeOp::TableAverage => format!("what does {} average out to", cell(&s.args[0])),
        };
        return finish(&q, '?');
    }
    let _ = rng;
    finish("what does the calculation over the table come to", '?')
}

fn finish(text: &str, terminal: char) -> String {
    nlgen::lexicon::sentence_case(&nlgen::lexicon::tidy(text), terminal)
}

fn lowercase_first(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_lowercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

// ---------------------------------------------------------------------------
// Gold-sample construction.
// ---------------------------------------------------------------------------

/// Produces one gold verification sample (Supported/Refuted) on `table`.
pub fn gold_verification(table: &Table, bank: &TemplateBank, rng: &mut impl Rng) -> Option<Sample> {
    let tpl = bank.logic().choose(rng).copied()?;
    let desired = rng.gen_bool(0.5);
    let ctx = ExecContext::new(table);
    let claim = tpl.try_instantiate(&ctx, rng, desired, &mut LfScratch::default()).ok()?;
    let text = human_logic_claim(&claim.expr, rng);
    let verdict = if claim.truth { Verdict::Supported } else { Verdict::Refuted };
    let mut s = Sample::verification(table.clone(), text, verdict);
    s.program = ProgramKind::Logic(claim.expr.to_string());
    Some(s)
}

/// Produces one gold SQL-based QA sample on `table`.
pub fn gold_qa_sql(table: &Table, bank: &TemplateBank, rng: &mut impl Rng) -> Option<Sample> {
    gold_qa_sql_for_topic(table, bank, "", rng)
}

/// Produces one gold SQL-based QA sample with topic-idiomatic phrasing.
pub fn gold_qa_sql_for_topic(
    table: &Table,
    bank: &TemplateBank,
    topic: &str,
    rng: &mut impl Rng,
) -> Option<Sample> {
    let tpl = bank.sql().choose(rng).copied()?;
    let mut scratch = SqlScratch::default();
    let stmt = tpl.try_instantiate(&ExecContext::new(table), rng, &mut scratch).ok()?;
    let result = uctr::execute_sql(&stmt, table, &mut scratch.kern).ok()?;
    let text = human_sql_question_for_topic(&stmt, topic, rng);
    let mut s = Sample::qa(table.clone(), text, result.answer);
    s.answer_kind = uctr::sql_answer_kind(&stmt);
    s.program = ProgramKind::Sql(stmt.to_string());
    Some(s)
}

/// Produces one gold arithmetic QA sample on `table`.
pub fn gold_qa_arith(table: &Table, bank: &TemplateBank, rng: &mut impl Rng) -> Option<Sample> {
    let tpl = bank.arith().choose(rng).copied()?;
    let ctx = ExecContext::new(table);
    let inst = tpl.try_instantiate(&ctx, rng, &mut AeScratch::default()).ok()?;
    let text = human_arith_question(&inst.program, rng);
    let mut s = Sample::qa(table.clone(), text, inst.outcome.answer.to_string());
    s.answer_kind = AnswerKind::Arithmetic;
    s.program = ProgramKind::Arith(inst.program.to_string());
    Some(s)
}

/// Converts a gold table-only sample into a joint table-text sample by
/// splitting one reasoning row into a sentence (the gold analogue of the
/// paper's combined-evidence instances).
pub fn into_table_text(sample: Sample, rng: &mut impl Rng) -> Option<Sample> {
    let highlighted = sample.program.highlighted_cells(&sample.table)?;
    let mut rows: Vec<usize> = highlighted.iter().map(|&(row, _)| row).collect();
    rows.sort_unstable();
    rows.dedup();
    let &row = rows.choose(rng)?;
    let split = textops::table_to_text(&sample.table, row, rng)?;
    let mut s = sample;
    s.table = s.table.without_row(row);
    s.context = vec![split.sentence];
    s.evidence = EvidenceType::TableText;
    Some(s)
}

/// Converts a gold sample into a text-only sample (single-row reasoning
/// expressible from one sentence); used for TAT-QA's Text partition.
pub fn gold_text_only(table: &Table, rng: &mut impl Rng) -> Option<Sample> {
    let row = rng.gen_range(0..table.n_rows());
    let sentence = textops::describe_row(table, row, rng)?;
    let ecol = table.entity_column();
    let entity = table.cell(row, ecol).filter(|v| !v.is_null())?.to_string();
    let cols: Vec<usize> = (0..table.n_cols())
        .filter(|&c| c != ecol && table.cell(row, c).is_some_and(|v| !v.is_null()))
        .collect();
    let &col = cols.choose(rng)?;
    let col_name = table.column_name(col)?;
    let value = table.cell(row, col)?.to_string();
    let empty = Table::from_strings(&table.title, &[vec![]]).ok()?;
    let mut s = Sample::qa(
        empty,
        format!("According to the passage, what {col_name} does {entity} report?"),
        value,
    );
    s.context = vec![sentence];
    s.evidence = EvidenceType::TextOnly;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gold_bank_is_superset_of_builtin() {
        let gold = gold_bank();
        let builtin = TemplateBank::builtin();
        assert_eq!(gold.sql().len(), builtin.sql().len() + GOLD_EXTRA_SQL.len());
        // Of the three logic extras, one is rejected by the typechecker
        // (misplaced value holes) and one duplicates a builtin signature;
        // exactly one is net-new.
        assert_eq!(gold.logic().len(), builtin.logic().len() + 1);
    }

    #[test]
    fn gold_verification_labels_match_execution() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(1);
        let bank = gold_bank();
        let table = vocab::wiki_table("sports", &mut rng);
        let mut produced = 0;
        for _ in 0..30 {
            let Some(s) = gold_verification(&table, &bank, &mut rng) else { continue };
            produced += 1;
            let ProgramKind::Logic(f) = &s.program else { panic!() };
            let ctx = ExecContext::new(&s.table);
            let mut kern = tabular::KernelScratch::default();
            let truth = logicforms::evaluate_truth(&logicforms::parse(f)?, &ctx, &mut kern)?;
            let expect = if truth { Verdict::Supported } else { Verdict::Refuted };
            assert_eq!(s.label.as_verdict(), Some(expect));
        }
        assert!(produced > 10, "only {produced}/30 instantiated");
        Ok(())
    }

    #[test]
    fn gold_qa_answers_match_execution() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(2);
        let bank = gold_bank();
        let table = vocab::wiki_table("politics", &mut rng);
        let mut produced = 0;
        for _ in 0..30 {
            let Some(s) = gold_qa_sql(&table, &bank, &mut rng) else { continue };
            produced += 1;
            assert!(!s.label.as_answer().ok_or("QA sample without an answer")?.is_empty());
            assert!(s.text.ends_with('?'));
        }
        assert!(produced > 10);
        Ok(())
    }

    #[test]
    fn human_phrasing_differs_from_nlgen() -> Result<(), Box<dyn std::error::Error>> {
        // The same program realized by both generators should rarely match
        // exactly — that's the supervised/unsupervised distribution gap.
        let mut rng = StdRng::seed_from_u64(3);
        let stmt = sqlexec::parse("select [team] from w order by [points] desc limit 1")?;
        let human = human_sql_question(&stmt, &mut rng);
        let g = nlgen::NlGenerator::new().with_noise(nlgen::NoiseConfig::off());
        let machine =
            g.verbalize(nlgen::ProgramRef::Sql(&stmt), &mut rng, &mut nlgen::NlScratch::default());
        assert_ne!(human, machine);
        Ok(())
    }

    #[test]
    fn into_table_text_moves_row_to_context() {
        let mut rng = StdRng::seed_from_u64(4);
        let bank = gold_bank();
        let table = vocab::wiki_table("sports", &mut rng);
        let mut done = false;
        for _ in 0..40 {
            let Some(s) = gold_qa_sql(&table, &bank, &mut rng) else { continue };
            let before_rows = s.table.n_rows();
            if let Some(tt) = into_table_text(s, &mut rng) {
                assert_eq!(tt.table.n_rows(), before_rows - 1);
                assert_eq!(tt.context.len(), 1);
                assert_eq!(tt.evidence, EvidenceType::TableText);
                done = true;
                break;
            }
        }
        assert!(done, "no sample could be converted to table-text");
    }

    #[test]
    fn human_sql_covers_all_shapes() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(9);
        let cases = [
            ("select [team] from w order by [points] desc limit 1", &["team", "points"][..]),
            ("select count(*) from w where [points] > 50", &["points", "50"]),
            ("select sum([points]) from w", &["points"]),
            ("select [points] - [wins] from w where [team] = 'Reds'", &["points", "wins", "Reds"]),
            ("select [team] from w where [city] = 'Oslo'", &["team", "Oslo"]),
        ];
        for (q, must_contain) in cases {
            let stmt = sqlexec::parse(q)?;
            let text = human_sql_question(&stmt, &mut rng);
            assert!(text.ends_with('?'), "{text}");
            for needle in must_contain {
                assert!(
                    text.to_lowercase().contains(&needle.to_lowercase()),
                    "`{text}` missing `{needle}` (query `{q}`)"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn human_logic_covers_all_shapes() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(10);
        let cases = [
            "eq { count { filter_eq { all_rows ; team ; Reds } } ; 2 }",
            "eq { hop { argmax { all_rows ; points } ; team } ; Reds }",
            "most_greater { all_rows ; points ; 50 }",
            "only { filter_eq { all_rows ; city ; Oslo } }",
            "round_eq { avg { all_rows ; points } ; 70 }",
            "greater { hop { filter_eq { all_rows ; team ; Reds } ; points } ; hop { filter_eq { all_rows ; team ; Blues } ; points } }",
        ];
        for f in cases {
            let e = logicforms::parse(f)?;
            let text = human_logic_claim(&e, &mut rng);
            assert!(text.ends_with('.'), "{text}");
            assert!(text.len() > 15, "too short: {text}");
        }
        Ok(())
    }

    #[test]
    fn human_arith_covers_idioms() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(11);
        let pct = arithexpr::parse(
            "subtract( the 2019 of Revenue , the 2018 of Revenue ), divide( #0 , the 2018 of Revenue )",
        )?;
        let t = human_arith_question(&pct, &mut rng);
        assert!(t.to_lowercase().contains("percentage"), "{t}");
        let avg2 =
            arithexpr::parse("add( the 2019 of Revenue , the 2018 of Revenue ), divide( #0 , 2 )")?;
        let t = human_arith_question(&avg2, &mut rng);
        assert!(t.to_lowercase().contains("average"), "{t}");
        let prop = arithexpr::parse("table_sum( 2019 ) , divide( the 2019 of Costs , #0 )")?;
        let t = human_arith_question(&prop, &mut rng);
        assert!(t.to_lowercase().contains("share"), "{t}");
        let sumdiff =
            arithexpr::parse("table_sum( 2019 ) , table_sum( 2018 ) , subtract( #0 , #1 )")?;
        let t = human_arith_question(&sumdiff, &mut rng);
        assert!(t.to_lowercase().contains("sum"), "{t}");
        Ok(())
    }

    #[test]
    fn topic_idioms_differ_by_topic() -> Result<(), Box<dyn std::error::Error>> {
        let stmt = sqlexec::parse("select [team] from w order by [points] desc limit 1")?;
        let mut seen = std::collections::BTreeSet::new();
        for topic in crate::vocab::TOPICS {
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..20 {
                seen.insert(human_sql_question_for_topic(&stmt, topic, &mut rng));
            }
        }
        // Five topics with distinct idioms plus generic variants.
        assert!(seen.len() >= 6, "not enough phrasing diversity: {seen:?}");
        Ok(())
    }

    #[test]
    fn gold_text_only_has_sentence_evidence() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(5);
        let table = vocab::finance_table(&mut rng);
        let s = gold_text_only(&table, &mut rng).ok_or("no text-only sample")?;
        assert_eq!(s.evidence, EvidenceType::TextOnly);
        assert_eq!(s.table.n_rows(), 0);
        assert!(!s.context[0].is_empty());
        // The answer must appear in the sentence.
        assert!(s.context[0].contains(s.label.as_answer().ok_or("QA sample without an answer")?));
        Ok(())
    }

    #[test]
    fn gold_arith_on_finance_tables() {
        let mut rng = StdRng::seed_from_u64(6);
        let bank = gold_bank();
        let table = vocab::finance_table(&mut rng);
        let mut produced = 0;
        for _ in 0..20 {
            if let Some(s) = gold_qa_arith(&table, &bank, &mut rng) {
                produced += 1;
                assert_eq!(s.answer_kind, AnswerKind::Arithmetic);
            }
        }
        assert!(produced > 10);
    }
}
