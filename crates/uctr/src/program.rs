//! The unified program layer: one closed enum per stage over the three
//! executor crates (paper §II-C's reasoning-program types).
//!
//! Before this layer existed the pipeline had one hand-written driver per
//! program kind, each repeating the same telemetry funnel.
//! [`AnyTemplate`] and [`Program`] factor that shape out:
//!
//! * an [`AnyTemplate`] can **instantiate** itself against a table
//!   (sampling holes from the table via a shared [`ExecContext`]),
//! * the resulting [`Program`] can **execute** (a SQL query; logic and
//!   arithmetic programs run during instantiation — see
//!   [`Program::pre_executed`]), **verbalize** through the
//!   [`NlGenerator`], and finally surrender its
//!   [`ProgramOutput`]: the gold label, the serialized program, the answer
//!   kind and the highlighted cells that downstream sample builders (table
//!   splitting / expansion) need.
//!
//! Every fallible step reports a unified [`Discard`] reason, so the
//! telemetry funnel (Attempted → Instantiated → Executed → Accepted) is
//! driven once, generically, in `pipeline::run_program`.
//!
//! Adding a fourth program kind means adding a variant to both enums plus
//! a [`KindSlot`] — see `DESIGN.md` for the walkthrough.

use crate::sample::{AnswerKind, Label, ProgramKind, Verdict};
use crate::telemetry::{Discard, KindSlot};
use arithexpr::{AeOutcome, AeProgram, AeScratch, AeTemplate};
use logicforms::{LfExpr, LfScratch, LfTemplate};
use nlgen::{NlGenerator, NlScratch, ProgramRef};
use rand::rngs::StdRng;
use rand::Rng;
use sqlexec::{AggFunc, Expr, QueryResult, SelectItem, SelectStmt, SqlScratch, SqlTemplate};
use tabular::{ExecContext, KernelScratch, Table, TemplateAnalysis};

/// Reusable per-worker buffers for the sample hot path.
///
/// One `GenScratch` lives per generation worker (and one per sequential
/// run): instantiation retries, candidate filtering, NL realization and the
/// pipeline's own sample builders all write into these buffers instead of
/// allocating per sample. A default-constructed scratch is always valid —
/// every buffer is cleared before use, never read.
#[derive(Debug, Clone, Default)]
pub struct GenScratch {
    /// SQL template sampling buffers.
    pub sql: SqlScratch,
    /// Logical-form template sampling buffers.
    pub lf: LfScratch,
    /// Arithmetic template sampling buffers.
    pub ae: AeScratch,
    /// NL candidate + n-gram scoring buffers.
    pub nl: NlScratch,
    /// Row-index buffer (table splitting / highlighted-row scans).
    pub rows: Vec<usize>,
    /// Column/candidate index buffer (text-only alternative sampling).
    pub cols: Vec<usize>,
    /// String buffer for cell rendering and comparisons.
    pub buf: String,
    /// Table-To-Text buffers (row verbalization + faithfulness check).
    pub text: textops::TextScratch,
}

/// `Display`-renders into a string sized for typical serialized programs,
/// avoiding the growth reallocations of `to_string()` on hot paths.
fn render(d: &impl std::fmt::Display, cap: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(cap);
    let _ = write!(s, "{d}");
    s
}

/// Everything the pipeline carries away from one successful program run.
#[derive(Debug, Clone)]
pub struct ProgramOutput {
    /// The gold label (answer text for QA, verdict for verification).
    pub label: Label,
    /// The serialized program that produced the label.
    pub program: ProgramKind,
    /// The answer-type bucket the sample falls into (paper Table VI).
    pub answer_kind: AnswerKind,
    /// Table cells the execution touched; table splitting and expansion
    /// filter on these.
    pub highlighted: Vec<(usize, usize)>,
}

/// A program template of any kind, stored by value in the unified
/// [`crate::TemplateBank`] and instantiable against a table.
#[derive(Debug, Clone)]
pub enum AnyTemplate {
    Sql(SqlTemplate),
    Logic(LfTemplate),
    Arith(AeTemplate),
}

impl AnyTemplate {
    /// The telemetry slot this template's attempts are counted under.
    pub fn kind(&self) -> KindSlot {
        match self {
            AnyTemplate::Sql(_) => KindSlot::Sql,
            AnyTemplate::Logic(_) => KindSlot::Logic,
            AnyTemplate::Arith(_) => KindSlot::Arith,
        }
    }

    /// The dedup signature (unprefixed — the bank prefixes by kind so that
    /// signatures never collide across kinds).
    pub fn signature(&self) -> String {
        match self {
            AnyTemplate::Sql(t) => t.signature(),
            AnyTemplate::Logic(t) => t.signature(),
            AnyTemplate::Arith(t) => t.signature(),
        }
    }

    /// Statically typechecks the template without a table and computes the
    /// weakest [`tabular::SchemaRequirement`] a table must satisfy for
    /// [`AnyTemplate::try_instantiate`] to have any chance of succeeding.
    /// Soundness contract: a reported issue means instantiation fails on
    /// every table under every RNG stream; an unsatisfied requirement means
    /// it fails on that table under every RNG stream (see
    /// `crate::analysis`).
    pub fn analyze(&self) -> TemplateAnalysis {
        match self {
            AnyTemplate::Sql(t) => sqlexec::analysis::analyze(t),
            AnyTemplate::Logic(t) => logicforms::analysis::analyze(t),
            AnyTemplate::Arith(t) => arithexpr::analysis::analyze(t),
        }
    }

    /// The canonical form (unprefixed, like [`AnyTemplate::signature`]):
    /// holes alpha-renamed into first-use order, commutative operands
    /// sorted, executor-faithful identities applied. Soundness contract:
    /// two same-kind templates with equal canonical forms produce
    /// *identical* outputs under identical RNG streams on every table —
    /// the per-crate `canon` modules only apply rewrites that provably
    /// preserve the instantiation draw stream, and `crate::analysis`'s
    /// differential harness re-verifies every merge the miner performs.
    pub fn canonicalize(&self) -> String {
        match self {
            AnyTemplate::Sql(t) => sqlexec::canon::canonical_form(t),
            AnyTemplate::Logic(t) => logicforms::canon::canonical_form(t),
            AnyTemplate::Arith(t) => arithexpr::canon::canonical_form(t),
        }
    }

    /// Samples the template's holes from `ctx`'s table, returning a runnable
    /// program. All table scans go through the shared `ctx` caches and all
    /// per-attempt buffers come from `scratch`. The RNG draw sequence is
    /// part of the pipeline's determinism contract: each arm must consume
    /// draws exactly as the original per-kind drivers did.
    pub fn try_instantiate(
        &self,
        ctx: &ExecContext,
        rng: &mut StdRng,
        scratch: &mut GenScratch,
    ) -> Result<Program, Discard> {
        match self {
            AnyTemplate::Sql(t) => {
                let stmt = t.try_instantiate(ctx, rng, &mut scratch.sql)?;
                Ok(Program::Sql { stmt, answer: String::new(), highlighted: Vec::new() })
            }
            AnyTemplate::Logic(t) => {
                // Truth-targeted sampling: flip the target first, then
                // sample. The draw order (gen_bool before the template's
                // own draws) is part of the determinism contract.
                let desired = rng.gen_bool(0.5);
                let claim = t.try_instantiate(ctx, rng, desired, &mut scratch.lf)?;
                let highlighted = scratch.lf.highlighted().to_vec();
                Ok(Program::Logic { expr: claim.expr, truth: claim.truth, highlighted })
            }
            AnyTemplate::Arith(t) => {
                let inst = t.try_instantiate(ctx, rng, &mut scratch.ae)?;
                Ok(Program::Arith { program: inst.program, outcome: inst.outcome })
            }
        }
    }
}

/// A fully-instantiated program: executable, verbalizable, and finally
/// convertible into a [`ProgramOutput`].
#[derive(Debug)]
pub enum Program {
    /// A SQL query; `answer` and `highlighted` are filled by
    /// [`Program::execute`].
    Sql { stmt: SelectStmt, answer: String, highlighted: Vec<(usize, usize)> },
    /// A logical-form claim whose truth value instantiation targeted and
    /// reached, with the cells the deciding evaluation highlighted.
    Logic { expr: LfExpr, truth: bool, highlighted: Vec<(usize, usize)> },
    /// An arithmetic program, executed during instantiation.
    Arith { program: AeProgram, outcome: AeOutcome },
}

impl Program {
    /// True when instantiation already executed the program: arithmetic
    /// templates execute while sampling, to validate the binding, and
    /// truth-targeted logic sampling evaluates the claim it returns. The
    /// pipeline then skips [`Program::execute`] and its timer.
    pub fn pre_executed(&self) -> bool {
        !matches!(self, Program::Sql { .. })
    }

    /// Executes a SQL query against `ctx`'s table through
    /// [`execute_sql`]'s result filters, storing its answer and highlights.
    /// Kernel buffers come from `scratch`. A pre-executed program has
    /// nothing left to run.
    pub fn execute(&mut self, ctx: &ExecContext, scratch: &mut GenScratch) -> Result<(), Discard> {
        if let Program::Sql { stmt, answer, highlighted } = self {
            let result = execute_sql(stmt, ctx.table(), &mut scratch.sql.kern)?;
            *answer = result.answer;
            *highlighted = result.highlighted;
        }
        Ok(())
    }

    /// Verbalizes the program into a question / claim. Candidate realization
    /// and n-gram scoring run inside `scratch`'s NL buffers.
    pub fn verbalize(
        &self,
        generator: &NlGenerator,
        rng: &mut StdRng,
        scratch: &mut GenScratch,
    ) -> String {
        let program = match self {
            Program::Sql { stmt, .. } => ProgramRef::Sql(stmt),
            Program::Logic { expr, .. } => ProgramRef::Logic(expr),
            Program::Arith { program, .. } => ProgramRef::Arith(program),
        };
        generator.verbalize(program, rng, &mut scratch.nl)
    }

    /// Surrenders the run's output, after a successful execute.
    pub fn output(self) -> ProgramOutput {
        match self {
            Program::Sql { stmt, answer, highlighted } => ProgramOutput {
                label: Label::Answer(answer),
                program: ProgramKind::Sql(render(&stmt, 96)),
                answer_kind: sql_answer_kind(&stmt),
                highlighted,
            },
            Program::Logic { expr, truth, highlighted } => {
                let verdict = if truth { Verdict::Supported } else { Verdict::Refuted };
                ProgramOutput {
                    label: Label::Verdict(verdict),
                    program: ProgramKind::Logic(render(&expr, 96)),
                    answer_kind: AnswerKind::NotApplicable,
                    highlighted,
                }
            }
            Program::Arith { program, outcome } => ProgramOutput {
                label: Label::Answer(render(&outcome.answer, 16)),
                program: ProgramKind::Arith(render(&program, 96)),
                answer_kind: AnswerKind::Arithmetic,
                highlighted: outcome.highlighted,
            },
        }
    }
}

/// Executes a SQL program with the paper's §IV-C result filters: a result
/// with no non-null value, or an empty answer, is a discard.
pub fn execute_sql(
    stmt: &SelectStmt,
    table: &Table,
    kern: &mut KernelScratch,
) -> Result<QueryResult, Discard> {
    let result = sqlexec::execute(stmt, table, kern)?;
    if !result.non_null {
        return Err(Discard::EmptyResult);
    }
    if result.answer.is_empty() {
        return Err(Discard::EmptyAnswer);
    }
    Ok(result)
}

/// The answer-type bucket of a SQL program's answer (paper Table VI): a
/// COUNT is a count, any other aggregate or a binary expression is
/// arithmetic, anything else a span.
pub fn sql_answer_kind(stmt: &SelectStmt) -> AnswerKind {
    let items = &stmt.items;
    if items.iter().any(|i| matches!(i, SelectItem::Aggregate { func: AggFunc::Count, .. })) {
        AnswerKind::Count
    } else if items
        .iter()
        .any(|i| matches!(i, SelectItem::Aggregate { .. } | SelectItem::Expr(Expr::Binary { .. })))
    {
        AnswerKind::Arithmetic
    } else {
        AnswerKind::Span
    }
}

impl ProgramKind {
    /// The table cells this serialized program highlights when it is parsed
    /// again and run on `table`; `None` for a sample without a program, or
    /// when the program no longer parses or runs there.
    pub fn highlighted_cells(&self, table: &Table) -> Option<Vec<(usize, usize)>> {
        let mut kern = KernelScratch::default();
        Some(match self {
            ProgramKind::Sql(q) => {
                sqlexec::execute(&sqlexec::parse(q).ok()?, table, &mut kern).ok()?.highlighted
            }
            ProgramKind::Logic(f) => {
                let expr = logicforms::parse(f).ok()?;
                logicforms::evaluate(&expr, &ExecContext::new(table), &mut kern).ok()?.highlighted
            }
            ProgramKind::Arith(p) => {
                let program = arithexpr::parse(p).ok()?;
                arithexpr::execute(&program, &ExecContext::new(table), &mut kern).ok()?.highlighted
            }
            ProgramKind::None => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tabular::Table;

    fn table() -> Table {
        Table::from_strings(
            "t",
            &[
                vec!["name", "city", "points", "wins"],
                vec!["Reds", "Oslo", "77", "21"],
                vec!["Blues", "Lima", "64", "18"],
                vec!["Greens", "Kyiv", "81", "24"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    fn instantiate(tpl: &AnyTemplate, ctx: &ExecContext, rng: &mut StdRng) -> Program {
        tpl.try_instantiate(ctx, rng, &mut GenScratch::default())
            .unwrap_or_else(|e| panic!("instantiate: {e:?}"))
    }

    #[test]
    fn sql_template_runs_end_to_end_through_the_enum() {
        let t = table();
        let ctx = ExecContext::new(&t);
        let tpl = AnyTemplate::Sql(
            SqlTemplate::parse("select c1 from w where c2 = val1")
                .unwrap_or_else(|e| panic!("parse: {e}")),
        );
        assert_eq!(tpl.kind(), KindSlot::Sql);
        let mut rng = StdRng::seed_from_u64(7);
        let mut inst = instantiate(&tpl, &ctx, &mut rng);
        assert!(!inst.pre_executed());
        inst.execute(&ctx, &mut GenScratch::default()).unwrap_or_else(|e| panic!("execute: {e:?}"));
        let text = inst.verbalize(&NlGenerator::new(), &mut rng, &mut GenScratch::default());
        assert!(!text.is_empty());
        let out = inst.output();
        assert!(matches!(out.program, ProgramKind::Sql(_)));
        assert!(out.label.as_answer().is_some());
    }

    #[test]
    fn logic_template_reports_verdict_labels() {
        let t = table();
        let ctx = ExecContext::new(&t);
        let tpl = AnyTemplate::Logic(
            LfTemplate::parse("eq { max { all_rows ; c1 } ; val1 }")
                .unwrap_or_else(|e| panic!("parse: {e}")),
        );
        assert_eq!(tpl.kind(), KindSlot::Logic);
        let mut rng = StdRng::seed_from_u64(3);
        let inst = instantiate(&tpl, &ctx, &mut rng);
        assert!(inst.pre_executed());
        let out = inst.output();
        assert!(matches!(out.program, ProgramKind::Logic(_)));
        assert!(out.label.as_verdict().is_some());
        assert_eq!(out.answer_kind, AnswerKind::NotApplicable);
        assert!(!out.highlighted.is_empty());
        // The cells instantiation carried out are those a fresh evaluation
        // of the serialized claim highlights.
        assert_eq!(out.program.highlighted_cells(&t).as_ref(), Some(&out.highlighted));
    }

    #[test]
    fn arith_template_is_pre_executed() {
        let t = table();
        let ctx = ExecContext::new(&t);
        let tpl = AnyTemplate::Arith(
            AeTemplate::parse("table_sum( c1 )").unwrap_or_else(|e| panic!("parse: {e}")),
        );
        assert_eq!(tpl.kind(), KindSlot::Arith);
        let mut rng = StdRng::seed_from_u64(5);
        let inst = instantiate(&tpl, &ctx, &mut rng);
        assert!(inst.pre_executed());
        let out = inst.output();
        assert!(matches!(out.program, ProgramKind::Arith(_)));
        assert_eq!(out.answer_kind, AnswerKind::Arithmetic);
    }

    #[test]
    fn instantiation_failures_map_to_unified_discards() {
        // A table with no numeric columns cannot satisfy an arithmetic
        // template.
        let t = Table::from_strings("t", &[vec!["a", "b"], vec!["x", "y"]])
            .unwrap_or_else(|e| panic!("test table: {e}"));
        let ctx = ExecContext::new(&t);
        let tpl = AnyTemplate::Arith(
            AeTemplate::parse("table_sum( c1 )").unwrap_or_else(|e| panic!("parse: {e}")),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let err = tpl.try_instantiate(&ctx, &mut rng, &mut GenScratch::default()).err();
        assert_eq!(err, Some(Discard::ColumnMismatch));
    }

    #[test]
    fn any_template_exposes_its_kind() {
        let sql = AnyTemplate::Sql(
            SqlTemplate::parse("select c1 from w").unwrap_or_else(|e| panic!("sql: {e}")),
        );
        let logic = AnyTemplate::Logic(
            LfTemplate::parse("only { filter_eq { all_rows ; c1 ; val1 } }")
                .unwrap_or_else(|e| panic!("lf: {e}")),
        );
        let arith = AnyTemplate::Arith(
            AeTemplate::parse("table_max( c1 )").unwrap_or_else(|e| panic!("ae: {e}")),
        );
        assert_eq!(sql.kind(), KindSlot::Sql);
        assert_eq!(logic.kind(), KindSlot::Logic);
        assert_eq!(arith.kind(), KindSlot::Arith);
    }
}
