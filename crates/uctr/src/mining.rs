//! Template mining (paper §IV-B, the acquisition half).
//!
//! The paper obtains its template pool by *mining*: concrete programs from
//! seed corpora (SQUALL for SQL, Logic2Text for logical forms, FinQA for
//! arithmetic) are parsed, their column references and literals lifted into
//! typed holes, and the resulting templates deduplicated by the filtration
//! procedure. This module is that flow for the reproduction:
//!
//! * [`Miner::mine_program`] — parse one concrete program, abstract it via
//!   the per-crate `abstract_*` functions, typecheck it with the static
//!   analyzer and admit it into a [`TemplateBank`] (which dedups on the
//!   prefixed cross-kind signature);
//! * [`Miner::mine_sample`] — the same flow driven from a [`Sample`]'s
//!   serialized gold program (the `corpora` benchmarks are mined this way);
//! * [`Miner::mine_synthetic_corpus`] — a deterministic synthetic seed
//!   corpus standing in for the licensed originals: an enumerated family
//!   of concrete SQL queries and arithmetic step programs over fixed probe
//!   tables, plus concrete logical-form claims obtained by instantiating
//!   [`crate::autogen`] proposals.
//!
//! Mining also enforces a per-kind cost cap ([`SQL_MAX_WHERE_ATOMS`],
//! [`ARITH_MAX_STEPS`], [`LOGIC_MAX_OPS`]): the pipeline samples
//! templates uniformly within a kind, so a bank's throughput is the *mean*
//! per-attempt cost of its templates, and the miner is the only place that
//! mean can be controlled. Concrete programs whose instantiation cost is
//! dominated by their shape class — multi-atom SQL WHERE trees, 3+-step
//! arithmetic chains, deeply nested logical forms — are turned away before
//! abstraction ([`MineOutcome::OverBudget`]), keeping the mined bank's
//! per-sample cost within the CI throughput gate's tolerance of the builtin
//! bank (`bench_pipeline --check-floor`).
//!
//! Everything here is deterministic for a fixed seed, so the mined corpus
//! file CI commits (`ci/mined_templates.txt`) is reproducible bit-for-bit.

use crate::autogen::AutoGenerator;
use crate::program::AnyTemplate;
use crate::sample::{ProgramKind, Sample};
use crate::telemetry::KindSlot;
use crate::templates::TemplateBank;
use logicforms::LfScratch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rustc_hash::FxHashSet;
use tabular::{ExecContext, Table};

/// How one concrete program fared in the mining flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MineOutcome {
    /// Abstracted to a novel, well-typed template; admitted.
    Mined,
    /// Well-typed but its signature is already in the bank (filtration).
    Duplicate,
    /// Novel by signature but canonically equivalent to the admitted
    /// template at the carried bank index (see the per-crate `canon`
    /// modules): same instantiation behavior under every RNG stream.
    /// Pruned, and recorded as a [`MergeRecord`] so the differential
    /// harness (`crate::analysis::verify_merge`) can witness the merge.
    EquivalentTo(usize),
    /// The abstraction is ill-typed; the analyzer's diagnostics rejected it.
    Rejected,
    /// Well-typed but convicted by the abstract interpreter (A-rules):
    /// constant output, always-true/false claim, or a provably empty
    /// result set — it can never produce useful training signal.
    Degenerate,
    /// Parsed fine but exceeds the miner's per-kind cost cap.
    OverBudget,
    /// The concrete program text does not parse in its DSL.
    ParseFailed,
    /// The source carries no program (e.g. a text-only sample).
    NotAProgram,
}

/// Per-kind mining counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    pub mined: usize,
    pub duplicates: usize,
    /// Canonically equivalent to an earlier admission; pruned with a
    /// recorded merge.
    pub equivalent: usize,
    pub rejected: usize,
    pub degenerate: usize,
    pub over_budget: usize,
    pub parse_failures: usize,
}

/// Counters for one mining run, stratified by template kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinerStats {
    per_kind: [KindStats; 3],
    /// Sources carrying no program at all.
    pub skipped: usize,
}

impl MinerStats {
    /// The counters of one template kind (zero for [`KindSlot::None`]).
    pub fn kind(&self, kind: KindSlot) -> KindStats {
        self.per_kind.get(kind as usize).copied().unwrap_or_default()
    }

    /// Templates admitted across all kinds.
    pub fn mined_total(&self) -> usize {
        self.per_kind.iter().map(|k| k.mined).sum()
    }

    /// Canonical equivalents pruned across all kinds — the gap between the
    /// signatures the miner saw as novel and the templates it admitted.
    pub fn equivalent_total(&self) -> usize {
        self.per_kind.iter().map(|k| k.equivalent).sum()
    }

    fn bump(&mut self, kind: KindSlot, outcome: MineOutcome) {
        let Some(k) = self.per_kind.get_mut(kind as usize) else {
            self.skipped += 1;
            return;
        };
        match outcome {
            MineOutcome::Mined => k.mined += 1,
            MineOutcome::Duplicate => k.duplicates += 1,
            MineOutcome::EquivalentTo(_) => k.equivalent += 1,
            MineOutcome::Rejected => k.rejected += 1,
            MineOutcome::Degenerate => k.degenerate += 1,
            MineOutcome::OverBudget => k.over_budget += 1,
            MineOutcome::ParseFailed => k.parse_failures += 1,
            MineOutcome::NotAProgram => self.skipped += 1,
        }
    }
}

// Per-kind instantiation-cost caps applied during mining.
//
// The costs were measured per shape class against the builtin bank (see
// DESIGN.md): SQL attempt cost grows with every extra WHERE atom (a 2-cond
// tree costs ~1.8× a single atom), arithmetic with every extra step, and a
// logical form's instantiation cost is roughly linear in its operator
// count (every `op { ... }` brace pair is evaluated once while siblings
// instantiate and once more when the claim is finished). The caps keep
// the synthetic corpus inside the bench gate's regression tolerance while
// the heavy shapes stay covered by the builtin templates.

/// Maximum comparison atoms in a mined SQL WHERE tree.
pub const SQL_MAX_WHERE_ATOMS: usize = 1;
/// Maximum steps in a mined arithmetic program.
pub const ARITH_MAX_STEPS: usize = 2;
/// Maximum operator applications in a mined logical form.
pub const LOGIC_MAX_OPS: usize = 2;

/// Comparison atoms in a WHERE condition tree.
fn sql_where_atoms(cond: &sqlexec::Cond) -> usize {
    match cond {
        sqlexec::Cond::Compare { .. } => 1,
        sqlexec::Cond::And(a, b) | sqlexec::Cond::Or(a, b) => {
            sql_where_atoms(a) + sql_where_atoms(b)
        }
    }
}

/// Operator applications in a logical form (its `{`-brace count).
fn logic_ops(expr: &logicforms::LfExpr) -> usize {
    match expr {
        logicforms::LfExpr::Apply(_, args) => 1 + args.iter().map(logic_ops).sum::<usize>(),
        _ => 0,
    }
}

/// One canonical-equivalence pruning the miner performed: the turned-away
/// template and the index (into the miner's bank) of the surviving class
/// representative. Every record must pass the differential witness
/// (`crate::analysis::verify_merge`) — `xtask audit-equivalence` gates on
/// zero unverified merges.
#[derive(Debug, Clone)]
pub struct MergeRecord {
    pub kind: KindSlot,
    /// The pruned template (novel signature, equivalent canonical form).
    pub pruned: AnyTemplate,
    /// Bank index of the admitted representative it merged into.
    pub representative: usize,
}

/// Drives concrete programs through parse → abstract → typecheck → dedup
/// into a [`TemplateBank`].
#[derive(Debug, Default)]
pub struct Miner {
    bank: TemplateBank,
    stats: MinerStats,
    merges: Vec<MergeRecord>,
}

impl Miner {
    /// A miner over an empty bank: the mined corpus stands alone and dedups
    /// only against itself.
    pub fn new() -> Miner {
        Miner::default()
    }

    /// A miner extending an existing bank (e.g. the builtin one): mined
    /// templates dedup against everything already present.
    pub fn with_bank(bank: TemplateBank) -> Miner {
        Miner { bank, ..Miner::default() }
    }

    /// Mines one concrete program of `kind` from its surface text. `table`
    /// supplies the schema that types the lifted column holes (only SQL
    /// abstraction consults it).
    pub fn mine_program(&mut self, kind: KindSlot, text: &str, table: &Table) -> MineOutcome {
        let abstracted = match kind {
            KindSlot::Sql => match sqlexec::parse(text) {
                Ok(stmt) => {
                    let atoms = stmt.where_clause.as_ref().map_or(0, sql_where_atoms);
                    if atoms > SQL_MAX_WHERE_ATOMS {
                        self.stats.bump(kind, MineOutcome::OverBudget);
                        return MineOutcome::OverBudget;
                    }
                    AnyTemplate::Sql(sqlexec::abstract_query(&stmt, table))
                }
                Err(_) => {
                    self.stats.bump(kind, MineOutcome::ParseFailed);
                    return MineOutcome::ParseFailed;
                }
            },
            KindSlot::Logic => match logicforms::parse(text) {
                Ok(expr) => {
                    if logic_ops(&expr) > LOGIC_MAX_OPS {
                        self.stats.bump(kind, MineOutcome::OverBudget);
                        return MineOutcome::OverBudget;
                    }
                    AnyTemplate::Logic(logicforms::abstract_form(&expr))
                }
                Err(_) => {
                    self.stats.bump(kind, MineOutcome::ParseFailed);
                    return MineOutcome::ParseFailed;
                }
            },
            KindSlot::Arith => match arithexpr::parse(text) {
                Ok(program) => {
                    if program.steps.len() > ARITH_MAX_STEPS {
                        self.stats.bump(kind, MineOutcome::OverBudget);
                        return MineOutcome::OverBudget;
                    }
                    AnyTemplate::Arith(arithexpr::abstract_program(&program))
                }
                Err(_) => {
                    self.stats.bump(kind, MineOutcome::ParseFailed);
                    return MineOutcome::ParseFailed;
                }
            },
            KindSlot::None => {
                self.stats.bump(kind, MineOutcome::NotAProgram);
                return MineOutcome::NotAProgram;
            }
        };
        // Abstract-interpretation gate: a well-typed template the A-rules
        // convict (constant output, decided claim, provably empty result)
        // would only ever mint useless samples. The check is pure — it
        // consumes no RNG — so mining stays deterministic per seed.
        {
            let analysis = abstracted.analyze();
            if analysis.issues.is_empty() && !analysis.degeneracies.is_empty() {
                self.stats.bump(kind, MineOutcome::Degenerate);
                return MineOutcome::Degenerate;
            }
        }
        let outcome = match self.bank.try_add_classified(abstracted.clone()) {
            Ok(crate::templates::AddOutcome::Added(_)) => MineOutcome::Mined,
            Ok(crate::templates::AddOutcome::DuplicateSignature) => MineOutcome::Duplicate,
            Ok(crate::templates::AddOutcome::EquivalentTo(rep)) => {
                self.merges.push(MergeRecord { kind, pruned: abstracted, representative: rep });
                MineOutcome::EquivalentTo(rep)
            }
            Err(_) => MineOutcome::Rejected,
        };
        self.stats.bump(kind, outcome);
        outcome
    }

    /// Mines the gold program a labeled sample carries (the `corpora`
    /// benchmark flow: every gold sample serializes the concrete program
    /// that produced its label).
    pub fn mine_sample(&mut self, sample: &Sample) -> MineOutcome {
        match &sample.program {
            ProgramKind::Sql(text) => self.mine_program(KindSlot::Sql, text, &sample.table),
            ProgramKind::Logic(text) => self.mine_program(KindSlot::Logic, text, &sample.table),
            ProgramKind::Arith(text) => self.mine_program(KindSlot::Arith, text, &sample.table),
            ProgramKind::None => {
                self.stats.bump(KindSlot::None, MineOutcome::NotAProgram);
                MineOutcome::NotAProgram
            }
        }
    }

    /// Mines every gold sample of a slice (convenience for benchmark sets).
    pub fn mine_samples(&mut self, samples: &[Sample]) -> usize {
        let before = self.stats.mined_total();
        for s in samples {
            self.mine_sample(s);
        }
        self.stats.mined_total() - before
    }

    /// Mines the deterministic synthetic seed corpus (see the module docs):
    /// the enumerated concrete SQL and arithmetic programs plus
    /// `LOGIC_TARGET` auto-generated concrete logical-form claims. Returns
    /// the number of templates admitted.
    pub fn mine_synthetic_corpus(&mut self, seed: u64) -> usize {
        let before = self.stats.mined_total();
        let sql_probe = sql_probe_table();
        let fin_probe = fin_probe_table();
        for text in sql_seed_programs() {
            self.mine_program(KindSlot::Sql, &text, &sql_probe);
        }
        for text in arith_seed_programs() {
            self.mine_program(KindSlot::Arith, &text, &fin_probe);
        }
        for text in logic_seed_programs() {
            self.mine_program(KindSlot::Logic, &text, &sql_probe);
        }
        self.mine_autogen_logic(&sql_probe, LOGIC_TARGET, seed);
        self.stats.mined_total() - before
    }

    /// The logic side of the synthetic corpus: fit [`AutoGenerator`] on the
    /// builtin logic stratum, instantiate each validated proposal on the
    /// probe table into *concrete* claims (one per truth target), and run
    /// those through the ordinary mining flow (parse → abstract → dedup) —
    /// the same path a real Logic2Text claim would take.
    fn mine_autogen_logic(&mut self, probe: &Table, target: usize, seed: u64) {
        let seed_bank = TemplateBank::builtin();
        let mut gen = AutoGenerator::fit(seed_bank.logic());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut existing = FxHashSet::default();
        let ctx = ExecContext::new(probe);
        let mut scratch = LfScratch::default();
        for tpl in gen.generate(target, probe, &mut existing, &mut rng) {
            for desired in [true, false] {
                if let Ok(claim) = tpl.try_instantiate(&ctx, &mut rng, desired, &mut scratch) {
                    self.mine_program(KindSlot::Logic, &claim.expr.to_string(), probe);
                }
            }
        }
    }

    /// The bank accumulated so far.
    pub fn bank(&self) -> &TemplateBank {
        &self.bank
    }

    /// Consumes the miner, returning the accumulated bank.
    pub fn into_bank(self) -> TemplateBank {
        self.bank
    }

    /// The mining counters.
    pub fn stats(&self) -> MinerStats {
        self.stats
    }

    /// The canonical-equivalence prunings performed so far, in the order
    /// they happened. Deterministic per seed (the gate is pure).
    pub fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// Renders the mined corpus in the `kind: template` line format the
    /// `xtask audit-templates --mined` gate parses, with a `#` header
    /// carrying the per-kind funnel counts. Deterministic: templates appear
    /// in bank insertion order.
    pub fn corpus_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Mined template corpus ({} templates).", self.bank.len());
        for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
            let k = self.stats.kind(kind);
            let _ = writeln!(
                out,
                "# {}: {} mined, {} duplicates filtered, {} equivalent pruned, {} rejected, \
                 {} degenerate, {} over budget, {} parse failures",
                kind.name(),
                k.mined,
                k.duplicates,
                k.equivalent,
                k.rejected,
                k.degenerate,
                k.over_budget,
                k.parse_failures
            );
        }
        for t in self.bank.templates() {
            let _ = writeln!(out, "{}: {}", t.kind().name(), t.signature());
        }
        out
    }
}

/// How many auto-generated logic proposals the synthetic corpus instantiates
/// and re-mines. Deliberately above the shallow-shape capacity of the
/// grammar: the [`LOGIC_MAX_OPS`] cap turns away deep proposals, so
/// overshooting the target is how the miner exhausts the space of claims
/// cheap enough to admit.
pub const LOGIC_TARGET: usize = 800;

/// The default seed of the synthetic corpus (and of `xtask mine`).
pub const SYNTHETIC_SEED: u64 = 2023;

/// A 1k+-template bank: the builtin templates extended with the full
/// synthetic seed corpus (mined templates dedup against the builtins).
/// Deterministic per seed; this is the configuration `bench_pipeline`
/// measures as `mined_bank`.
pub fn mined_bank(seed: u64) -> TemplateBank {
    let mut miner = Miner::with_bank(TemplateBank::builtin());
    miner.mine_synthetic_corpus(seed);
    miner.into_bank()
}

/// SQUALL-style probe table: two text columns, two number columns, one date
/// column. Types the SQL holes and hosts the logic-claim instantiation.
#[expect(
    clippy::panic,
    reason = "The SQL probe table is a compile-time constant with uniform row widths; from_strings \
              can only reject it if the literal itself is edited into malformedness, and the panic \
              message names that invariant for whoever does."
)]
pub fn sql_probe_table() -> Table {
    Table::from_strings(
        "clubs",
        &[
            vec!["name", "city", "points", "wins", "founded"],
            vec!["Reds", "Oslo", "77", "21", "1990-05-01"],
            vec!["Blues", "Lima", "64", "18", "1985-03-12"],
            vec!["Greens", "Kyiv", "81", "24", "2001-08-23"],
            vec!["Golds", "Quito", "59", "15", "1999-11-30"],
        ],
    )
    .unwrap_or_else(|e| panic!("sql probe table is well-formed: {e:?}"))
}

/// FinQA-style probe table: a text item column and per-year number columns,
/// addressed by the `the <col> of <row>` cell syntax.
#[expect(
    clippy::panic,
    reason = "The FinQA-style probe table is a compile-time constant with uniform row widths; \
              from_strings can only reject it if the literal itself is edited into malformedness, \
              and the panic message names that invariant for whoever does."
)]
pub fn fin_probe_table() -> Table {
    Table::from_strings(
        "financials",
        &[
            vec!["item", "2019", "2018", "2017"],
            vec!["Revenue", "8800", "8000", "7600"],
            vec!["Costs", "6100", "5900", "5700"],
            vec!["Equity", "3200", "4000", "3900"],
        ],
    )
    .unwrap_or_else(|e| panic!("fin probe table is well-formed: {e:?}"))
}

/// The enumerated concrete SQL seed corpus over [`sql_probe_table`]:
/// select-item shapes × where shapes × order/limit tails. Abstraction
/// collapses value choices, so each emitted query is one *shape*; the
/// bank's signature dedup drops the collisions that remain. Every shape
/// keeps its WHERE tree to a single atom — the [`SQL_MAX_WHERE_ATOMS`] cap
/// turns away multi-atom trees, whose attempt cost would drag the whole
/// bank below the CI throughput gate, and the builtin templates already
/// cover the conjunctive shapes.
fn sql_seed_programs() -> Vec<String> {
    let selects = [
        "[name]",
        "[points]",
        "[founded]",
        "[name] , [points]",
        "[name] , [founded]",
        "[name] , [city]",
        "[points] , [wins]",
        "[founded] , [points]",
        "count ( * )",
        "count ( distinct [city] )",
        "count ( distinct [points] )",
        "count ( distinct [founded] )",
        "sum ( [points] )",
        "avg ( [points] )",
        "max ( [points] )",
        "min ( [points] )",
        "max ( [founded] )",
        "min ( [founded] )",
        "[points] - [wins]",
        "[points] + [wins]",
        "[points] * [wins]",
        "[points] / [wins]",
    ];
    let single_wheres = [
        "[city] = 'Oslo'",
        "[city] != 'Oslo'",
        "[points] = 77",
        "[points] != 77",
        "[points] > 70",
        "[points] < 70",
        "[points] >= 70",
        "[points] <= 70",
        "[founded] = '1995-01-01'",
        "[founded] != '1995-01-01'",
        "[founded] > '1995-01-01'",
        "[founded] < '1995-01-01'",
        "[founded] >= '1995-01-01'",
        "[founded] <= '1995-01-01'",
    ];
    let tails = [
        "",
        "order by [points] desc limit 1",
        "order by [points] asc limit 1",
        "order by [founded] desc limit 1",
        "order by [founded] asc limit 1",
    ];
    let extra_tails =
        ["order by [points] desc", "order by [name] asc limit 1", "limit 3", "limit 2"];

    let mut out = Vec::new();
    let mut push = |select: &str, where_: &str, tail: &str| {
        let mut q = format!("select {select} from w");
        if !where_.is_empty() {
            q.push_str(" where ");
            q.push_str(where_);
        }
        if !tail.is_empty() {
            q.push(' ');
            q.push_str(tail);
        }
        out.push(q);
    };
    for select in selects {
        for tail in tails {
            push(select, "", tail);
            for w in single_wheres {
                push(select, w, tail);
            }
        }
        for tail in extra_tails {
            push(select, "", tail);
        }
    }
    out
}

/// The enumerated concrete logical-form seed corpus over
/// [`sql_probe_table`]: every claim shape expressible within the
/// two-application [`LOGIC_MAX_OPS`] cap — scalar comparators over
/// aggregations of the whole table, uniqueness claims over one filter, and
/// the `all_*`/`most_*` column-quantifier family, plain and over a
/// `filter_all` view. Deeper claim shapes (the classic
/// `eq { count { filter_eq { ... } } ; n }` of Logic2Text) stay with the
/// builtin templates and the autogen proposals feeding
/// [`Miner::mine_autogen_logic`].
fn logic_seed_programs() -> Vec<String> {
    let comparators = ["eq", "not_eq", "round_eq", "greater", "less"];
    let aggs = [
        "count { all_rows }".to_string(),
        "max { all_rows ; points }".to_string(),
        "min { all_rows ; points }".to_string(),
        "sum { all_rows ; points }".to_string(),
        "avg { all_rows ; points }".to_string(),
        "nth_max { all_rows ; points ; 2 }".to_string(),
        "nth_min { all_rows ; points ; 2 }".to_string(),
    ];
    let filters = [
        "filter_eq { all_rows ; city ; Oslo }",
        "filter_not_eq { all_rows ; city ; Oslo }",
        "filter_greater { all_rows ; points ; 70 }",
        "filter_less { all_rows ; points ; 70 }",
        "filter_greater_eq { all_rows ; points ; 70 }",
        "filter_less_eq { all_rows ; points ; 70 }",
        "filter_all { all_rows ; points }",
    ];
    let quantifiers = [
        "all_eq",
        "all_not_eq",
        "all_greater",
        "all_less",
        "all_greater_eq",
        "all_less_eq",
        "most_eq",
        "most_not_eq",
        "most_greater",
        "most_less",
        "most_greater_eq",
        "most_less_eq",
    ];

    let mut out = Vec::new();
    // Both argument orders: "the count is 70" and "70 is the count" are
    // distinct shapes after abstraction, and both verbalize fine.
    for cmp in comparators {
        for agg in &aggs {
            out.push(format!("{cmp} {{ {agg} ; 70 }}"));
            out.push(format!("{cmp} {{ 70 ; {agg} }}"));
        }
    }
    for filter in filters {
        out.push(format!("only {{ {filter} }}"));
    }
    for q in quantifiers {
        out.push(format!("{q} {{ all_rows ; points ; 70 }}"));
        out.push(format!("{q} {{ filter_all {{ all_rows ; wins }} ; points ; 70 }}"));
    }
    out
}

/// The enumerated concrete arithmetic seed corpus over
/// [`fin_probe_table`]: FinQA-style step programs of one or two steps —
/// [`ARITH_MAX_STEPS`] caps chains at two, so three-step shapes stay with
/// the builtin templates. `greater` yields a truth value, so it only ever
/// terminates a chain. Constants survive abstraction, so each constant
/// choice is its own shape.
fn arith_seed_programs() -> Vec<String> {
    let c = |col: &str, row: &str| format!("the {col} of {row}");
    let cells =
        [c("2019", "Revenue"), c("2018", "Revenue"), c("2019", "Costs"), c("2018", "Costs")];
    let numeric_ops = ["add", "subtract", "multiply", "divide"];
    let final_ops = ["add", "subtract", "multiply", "divide", "greater", "exp"];
    let table_ops = ["table_sum", "table_average", "table_max", "table_min"];
    let cols = ["2019", "2018"];

    let mut out = Vec::new();
    // One step: binary over two cells; table op over a column; a cell
    // against a constant (both orders — growth rates, scalings, ratios).
    for op in final_ops {
        out.push(format!("{op}( {} , {} )", cells[0], cells[1]));
    }
    for op in table_ops {
        out.push(format!("{op}( {} )", cols[0]));
    }
    for op in final_ops {
        for konst in ["2", "100", "1000"] {
            out.push(format!("{op}( {} , {konst} )", cells[0]));
            out.push(format!("{op}( {konst} , {} )", cells[0]));
        }
    }
    // Two steps: a numeric opener, then a combiner over #0 and a third
    // operand (fresh cell or constant), in both operand orders.
    let mut openers: Vec<String> = Vec::new();
    for op in numeric_ops {
        openers.push(format!("{op}( {} , {} )", cells[0], cells[1]));
    }
    for op in table_ops {
        openers.push(format!("{op}( {} )", cols[0]));
    }
    for opener in &openers {
        for op in final_ops {
            for operand in [cells[2].as_str(), "2", "100", "1000"] {
                out.push(format!("{opener} , {op}( #0 , {operand} )"));
                out.push(format!("{opener} , {op}( {operand} , #0 )"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mine_program_covers_every_outcome() {
        let table = sql_probe_table();
        let mut miner = Miner::new();
        assert_eq!(
            miner.mine_program(KindSlot::Sql, "select [name] from w where [points] > 70", &table),
            MineOutcome::Mined
        );
        // Same shape, different literal: filtration dedups it.
        assert_eq!(
            miner.mine_program(KindSlot::Sql, "select [name] from w where [points] > 60", &table),
            MineOutcome::Duplicate
        );
        assert_eq!(
            miner.mine_program(KindSlot::Logic, "count { all_rows }", &table),
            MineOutcome::Rejected,
            "non-boolean-rooted claims are rejected by the analyzer"
        );
        assert_eq!(
            miner.mine_program(
                KindSlot::Sql,
                "select [name] from w where [points] > 70 and [wins] < 20",
                &table
            ),
            MineOutcome::OverBudget,
            "two WHERE atoms exceed the SQL cost cap"
        );
        assert_eq!(
            miner.mine_program(KindSlot::Sql, "select count ( from w", &table),
            MineOutcome::ParseFailed
        );
        assert_eq!(miner.mine_program(KindSlot::None, "", &table), MineOutcome::NotAProgram);
        let stats = miner.stats();
        assert_eq!(stats.kind(KindSlot::Sql).mined, 1);
        assert_eq!(stats.kind(KindSlot::Sql).duplicates, 1);
        assert_eq!(stats.kind(KindSlot::Sql).over_budget, 1);
        assert_eq!(stats.kind(KindSlot::Sql).parse_failures, 1);
        assert_eq!(stats.kind(KindSlot::Logic).rejected, 1);
        assert_eq!(stats.skipped, 1);
        assert_eq!(miner.bank().len(), 1);
    }

    #[test]
    fn cost_caps_turn_away_deep_shapes_of_each_kind() {
        let sql_probe = sql_probe_table();
        let fin_probe = fin_probe_table();
        let three_step = "table_sum( 2019 ) , table_sum( 2018 ) , subtract( #0 , #1 )";
        let shallow_claim = "eq { count { all_rows } ; 4 }";
        let deep_claim = "eq { count { filter_eq { all_rows ; city ; Oslo } } ; 1 }";
        let mut capped = Miner::new();
        assert_eq!(
            capped.mine_program(KindSlot::Arith, three_step, &fin_probe),
            MineOutcome::OverBudget
        );
        assert_eq!(
            capped.mine_program(KindSlot::Logic, shallow_claim, &sql_probe),
            MineOutcome::Mined
        );
        assert_eq!(
            capped.mine_program(KindSlot::Logic, deep_claim, &sql_probe),
            MineOutcome::OverBudget,
            "three nested applications exceed the logic cap of two"
        );
    }

    #[test]
    fn mine_sample_routes_on_the_program_kind() {
        let table = fin_probe_table();
        let mut miner = Miner::new();
        let mut s = Sample::qa(table.clone(), "q", "1");
        s.program =
            ProgramKind::Arith("subtract( the 2019 of Revenue , the 2018 of Revenue )".into());
        assert_eq!(miner.mine_sample(&s), MineOutcome::Mined);
        s.program = ProgramKind::None;
        assert_eq!(miner.mine_sample(&s), MineOutcome::NotAProgram);
        assert_eq!(miner.mine_samples(&[s]), 0);
    }

    #[test]
    fn synthetic_corpus_yields_a_large_clean_deduped_bank() {
        let mut miner = Miner::new();
        let mined = miner.mine_synthetic_corpus(SYNTHETIC_SEED);
        let stats = miner.stats();
        assert!(
            mined >= 1000,
            "synthetic corpus must mine >= 1000 templates, got {mined} ({stats:?})"
        );
        for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
            // The canonical-equivalence gate prunes the order-swapped
            // enumerations of the seed corpus (logic most of all: its seed
            // deliberately emits both comparator argument orders), so the
            // per-kind floor sits below the pre-pruning 100.
            assert!(stats.kind(kind).mined >= 60, "kind {kind:?} too thin: {:?}", stats.kind(kind));
        }
        // The logic and arithmetic seeds deliberately enumerate both
        // argument orders, so canonical pruning must fire there. The SQL
        // seeds keep columns on the left and enumerate one conjunct order,
        // so synthetic SQL has nothing to merge.
        for kind in [KindSlot::Logic, KindSlot::Arith] {
            assert!(
                stats.kind(kind).equivalent > 0,
                "kind {kind:?} should prune some canonical equivalents: {:?}",
                stats.kind(kind)
            );
        }
        assert_eq!(miner.bank().len(), mined);
        assert_eq!(
            miner.merges().len(),
            [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith]
                .iter()
                .map(|&k| stats.kind(k).equivalent)
                .sum::<usize>(),
            "every pruning leaves a merge record for the witness harness"
        );
        // Clean by construction: everything admitted passed the analyzer.
        for t in miner.bank().templates() {
            let analysis = t.analyze();
            assert!(analysis.issues.is_empty(), "mined template with issues: {t:?}");
        }
    }

    #[test]
    fn synthetic_corpus_is_deterministic() {
        let mut a = Miner::new();
        let mut b = Miner::new();
        a.mine_synthetic_corpus(SYNTHETIC_SEED);
        b.mine_synthetic_corpus(SYNTHETIC_SEED);
        assert_eq!(a.corpus_lines(), b.corpus_lines());
    }

    #[test]
    fn corpus_lines_round_trip_through_the_bank() {
        let mut miner = Miner::new();
        let table = sql_probe_table();
        miner.mine_program(KindSlot::Sql, "select [name] from w where [points] > 70", &table);
        miner.mine_program(KindSlot::Arith, "table_sum( 2019 )", &fin_probe_table());
        let lines = miner.corpus_lines();
        let mut bank = TemplateBank::new();
        for line in lines.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (kind, text) = line.split_once(':').unwrap_or_else(|| panic!("bad line {line}"));
            let kind = match kind.trim() {
                "sql" => KindSlot::Sql,
                "logic" => KindSlot::Logic,
                "arith" => KindSlot::Arith,
                other => panic!("unexpected kind {other}"),
            };
            assert_eq!(bank.try_add_source(kind, text.trim()), Ok(true), "line: {line}");
        }
        assert_eq!(bank.len(), miner.bank().len());
    }

    #[test]
    fn mined_bank_extends_the_builtins() {
        let bank = mined_bank(SYNTHETIC_SEED);
        assert!(bank.len() > TemplateBank::builtin().len());
        assert!(bank.len() >= 1000);
        // The schema index stays coherent at scale.
        assert!(bank.lattice_points().len() < bank.len());
        let probe = sql_probe_table();
        let ctx = tabular::ExecContext::new(&probe);
        let feasible = bank.feasible_set(&ctx);
        let total: usize = [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith]
            .iter()
            .map(|&k| feasible.len(k))
            .sum();
        assert!(total > 0);
    }
}
