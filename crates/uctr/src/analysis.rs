//! Unified template static analysis: the cross-DSL layer over the
//! per-crate `analysis` modules (see `DESIGN.md` §7).
//!
//! Each executor crate ships an `analysis::analyze` function that
//! typechecks a parsed template *without a table* and computes the
//! [`SchemaRequirement`] a table must meet for instantiation to have any
//! chance of succeeding. This module stitches those per-DSL results into
//! one kind-tagged view:
//!
//! * [`AnalyzedTemplate`] — kind + dedup signature + requirement + issues,
//!   obtained from any [`AnyTemplate`] via [`AnalyzedTemplate::of`] or
//!   from surface text via [`analyze_text`];
//! * [`TemplateDiagnostics`] — the structured error type
//!   [`crate::TemplateBank::try_add`] and
//!   [`crate::TemplateBank::builtin_checked`] reject ill-typed templates
//!   with, and the report currency of `xtask audit-templates`.
//!
//! Soundness contract (pinned by the prefilter property test in
//! `tests/property_tests.rs`): a template with a non-empty issue list fails
//! `try_instantiate` on *every* table under *every* RNG stream, and a table
//! failing `requirement.satisfied_by` fails instantiation of that template
//! under every RNG stream. The analyzers may under-approximate (miss a
//! defect, report a too-weak requirement) but never over-approximate.

use crate::mining::MergeRecord;
use crate::program::{AnyTemplate, GenScratch};
use crate::sample::{AnswerKind, Label};
use crate::telemetry::KindSlot;
use crate::templates::TemplateBank;
use arithexpr::AeTemplate;
use logicforms::LfTemplate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlexec::SqlTemplate;
use std::fmt;
use tabular::{AbsSummary, ExecContext, SchemaRequirement, Table, TemplateAnalysis, TemplateIssue};

/// Diagnostic code used for templates whose surface text does not parse
/// (only reachable through [`analyze_text`] / the checked bank builders —
/// a parsed template can no longer have this issue).
pub const PARSE_ERROR: &str = "parse-error";

/// The static-analysis view of one template: which DSL it belongs to, its
/// dedup signature, the weakest schema requirement a table must meet, and
/// every type defect found.
#[derive(Debug, Clone)]
pub struct AnalyzedTemplate {
    pub kind: KindSlot,
    /// The template's dedup signature (or its raw source text when the
    /// template never parsed).
    pub signature: String,
    pub requirement: SchemaRequirement,
    pub issues: Vec<TemplateIssue>,
    /// Abstract-interpretation degeneracy convictions (`A001` constant
    /// output, `A002` dead branch, `A003` vacuous predicate). Kept apart
    /// from `issues`: a degenerate template still executes, it just cannot
    /// produce useful training signal.
    pub degeneracies: Vec<TemplateIssue>,
    /// The joined abstract summary over all hole assignments and tables.
    pub summary: AbsSummary,
    /// Static estimate of the probability one instantiation attempt
    /// survives the generation funnel (see `DESIGN.md`).
    pub survival: f64,
}

impl AnalyzedTemplate {
    /// Analyzes a program template of any kind.
    pub fn of(template: &AnyTemplate) -> AnalyzedTemplate {
        let TemplateAnalysis { issues, requirement, degeneracies, summary, survival } =
            template.analyze();
        AnalyzedTemplate {
            kind: template.kind(),
            signature: template.signature(),
            requirement,
            issues,
            degeneracies,
            summary,
            survival,
        }
    }

    /// No defects: the template may still fail on a given table at
    /// runtime, but not deterministically on every table.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// At least one abstract-interpretation conviction (A-rule).
    pub fn is_degenerate(&self) -> bool {
        !self.degeneracies.is_empty()
    }

    /// Converts the issue list into kind/signature-tagged diagnostics
    /// (empty when clean).
    pub fn into_diagnostics(self) -> TemplateDiagnostics {
        let AnalyzedTemplate { kind, signature, issues, .. } = self;
        TemplateDiagnostics {
            diagnostics: issues
                .into_iter()
                .map(|issue| TemplateDiagnostic {
                    kind,
                    template: signature.clone(),
                    code: issue.code,
                    locus: issue.locus,
                    message: issue.message,
                })
                .collect(),
        }
    }
}

/// One template defect, tagged with the template it was found in. Renders
/// as `<kind>:<template>:<locus>: <message> (<code>)`; `xtask
/// audit-templates` prepends the source (builtin / mined file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateDiagnostic {
    pub kind: KindSlot,
    /// The offending template's signature (raw source text for parse
    /// failures).
    pub template: String,
    /// Stable kebab-case defect identifier (the ratchet key of
    /// `ci/template_health.json`).
    pub code: &'static str,
    /// The offending construct inside the template.
    pub locus: String,
    pub message: String,
}

impl fmt::Display for TemplateDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} ({})",
            self.kind.name(),
            self.template,
            self.locus,
            self.message,
            self.code
        )
    }
}

/// A non-empty batch of [`TemplateDiagnostic`]s — the error type of the
/// checked [`crate::TemplateBank`] constructors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TemplateDiagnostics {
    pub diagnostics: Vec<TemplateDiagnostic>,
}

impl TemplateDiagnostics {
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &TemplateDiagnostic> {
        self.diagnostics.iter()
    }
}

impl fmt::Display for TemplateDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for TemplateDiagnostics {}

/// Parses one template of `kind` from its surface text. A parse failure
/// becomes a [`PARSE_ERROR`] diagnostic rather than a panic, so callers
/// can fold parser and type errors into one report.
pub fn parse_any(kind: KindSlot, text: &str) -> Result<AnyTemplate, TemplateDiagnostic> {
    let parse_failure = |message: String| TemplateDiagnostic {
        kind,
        template: text.to_string(),
        code: PARSE_ERROR,
        locus: "parse".to_string(),
        message,
    };
    match kind {
        KindSlot::Sql => {
            SqlTemplate::parse(text).map(AnyTemplate::Sql).map_err(|e| parse_failure(e.to_string()))
        }
        KindSlot::Logic => LfTemplate::parse(text)
            .map(AnyTemplate::Logic)
            .map_err(|e| parse_failure(e.to_string())),
        KindSlot::Arith => AeTemplate::parse(text)
            .map(AnyTemplate::Arith)
            .map_err(|e| parse_failure(e.to_string())),
        KindSlot::None => {
            Err(parse_failure("the `none` slot holds no program templates".to_string()))
        }
    }
}

/// Parses and analyzes one template source line. Parse failures surface as
/// a single [`PARSE_ERROR`] issue with the raw text as the signature, so
/// audits can report malformed and ill-typed templates uniformly.
pub fn analyze_text(kind: KindSlot, text: &str) -> AnalyzedTemplate {
    match parse_any(kind, text) {
        Ok(t) => AnalyzedTemplate::of(&t),
        Err(d) => AnalyzedTemplate {
            kind,
            signature: d.template,
            requirement: SchemaRequirement::NONE,
            issues: vec![TemplateIssue::new(d.code, d.locus, d.message)],
            degeneracies: Vec::new(),
            summary: AbsSummary::TOP,
            survival: 0.0,
        },
    }
}

// ---------------------------------------------------------------------------
// Cross-template equivalence: differential witnesses, classes, subsumption.
// ---------------------------------------------------------------------------

/// Default number of per-table seeds the differential witness runs
/// (`xtask audit-equivalence` uses this value).
pub const WITNESS_SEEDS: u32 = 32;

/// The deterministic table zoo the differential witness executes over: the
/// two mining probe tables plus schema corner cases (single row, duplicate
/// values, all-numeric, numberless) so a merge must agree on degenerate
/// shapes too, not just the shape it was mined from.
pub fn witness_tables() -> Vec<Table> {
    // Every literal below is well-formed; a malformed one is silently
    // dropped here and caught by `the_witness_zoo_is_complete`.
    let t = |name: &str, rows: &[Vec<&str>]| Table::from_strings(name, rows).ok();
    [
        Some(crate::mining::sql_probe_table()),
        Some(crate::mining::fin_probe_table()),
        t("single", &[vec!["name", "score", "day"], vec!["Solo", "42", "2010-01-02"]]),
        t(
            "dupes",
            &[
                vec!["tag", "n", "m"],
                vec!["a", "5", "1"],
                vec!["a", "5", "2"],
                vec!["b", "7", "2"],
                vec!["b", "5", "3"],
            ],
        ),
        t(
            "numeric",
            &[
                vec!["x", "y", "z"],
                vec!["1", "10", "100"],
                vec!["2", "20", "200"],
                vec!["3", "30", "300"],
                vec!["4", "40", "400"],
                vec!["5", "50", "500"],
            ],
        ),
        t("textonly", &[vec!["name", "city"], vec!["Reds", "Oslo"], vec!["Blues", "Lima"]]),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The observable outcome of one template run: exactly what a synthesized
/// sample's gold fields carry. The serialized program and the NL surface
/// are deliberately excluded — a merge changes the program's spelling, not
/// its behavior.
type RunOutput = (Label, AnswerKind, Vec<(usize, usize)>);

/// Runs one template once under a fixed seed, through the full
/// instantiate → execute → output path the pipeline drives.
fn run_once(
    t: &AnyTemplate,
    ctx: &ExecContext,
    seed: u64,
    scratch: &mut GenScratch,
) -> Option<RunOutput> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = t.try_instantiate(ctx, &mut rng, scratch).ok()?;
    if !inst.pre_executed() {
        inst.execute(ctx, scratch).ok()?;
    }
    let out = inst.output();
    let mut highlighted = out.highlighted;
    highlighted.sort_unstable();
    highlighted.dedup();
    Some((out.label, out.answer_kind, highlighted))
}

/// The result of differentially executing a pruned template against its
/// surviving class representative over [`witness_tables`] × `seeds`.
#[derive(Debug, Clone)]
pub struct MergeWitness {
    /// (table, seed) cells where both runs produced a sample.
    pub productive: usize,
    /// (table, seed) cells where both runs failed (also agreement: the
    /// funnel discards the attempt either way).
    pub both_failed: usize,
    /// First observed disagreement, if any.
    pub mismatch: Option<String>,
}

impl MergeWitness {
    /// A merge is verified when nothing disagreed *and* at least one cell
    /// actually produced output — all-failure runs witness nothing.
    pub fn verified(&self) -> bool {
        self.mismatch.is_none() && self.productive > 0
    }
}

/// Differentially executes `pruned` against `representative`: for every
/// witness table and every seed, both templates run under the *same* RNG
/// stream and must produce the same label, answer kind and highlighted
/// cell set — or both fail. This is the ground-truth check behind the
/// canonicalizer's draw-stream-preservation argument; `xtask
/// audit-equivalence` gates on every miner merge passing it.
pub fn verify_merge(
    pruned: &AnyTemplate,
    representative: &AnyTemplate,
    seeds: u32,
) -> MergeWitness {
    let mut witness = MergeWitness { productive: 0, both_failed: 0, mismatch: None };
    let mut scratch = GenScratch::default();
    for (ti, table) in witness_tables().iter().enumerate() {
        let ctx = ExecContext::new(table);
        for s in 0..seeds {
            let seed = ((ti as u64) << 32) | u64::from(s);
            let a = run_once(pruned, &ctx, seed, &mut scratch);
            let b = run_once(representative, &ctx, seed, &mut scratch);
            match (a, b) {
                (None, None) => witness.both_failed += 1,
                (Some(x), Some(y)) if x == y => witness.productive += 1,
                (a, b) => {
                    if witness.mismatch.is_none() {
                        witness.mismatch = Some(format!(
                            "table {ti} seed {seed}: pruned {:?} vs representative {:?}",
                            a.map(|o| o.0),
                            b.map(|o| o.0),
                        ));
                    }
                }
            }
        }
    }
    witness
}

/// Does `a` subsume `b`? Holds when `b` is redundant *as coverage*: every
/// table feasible for `b` is feasible for `a` (`b`'s requirement is the
/// stronger lattice point) and `a`'s abstract output summary encloses
/// `b`'s. A preorder — reflexive and transitive, not antisymmetric: two
/// distinct templates can subsume each other (equal requirement and
/// summary) without being equivalent.
pub fn subsumes(a: &AnalyzedTemplate, b: &AnalyzedTemplate) -> bool {
    b.requirement.implies(&a.requirement) && a.summary.contains(&b.summary)
}

/// One canonical-form equivalence class over a bank plus the miner's
/// pruned candidates.
#[derive(Debug, Clone)]
pub struct EquivalenceClass {
    /// Bank index of the surviving representative.
    pub representative: usize,
    /// The kind-prefixed canonical key shared by every member.
    pub canonical: String,
    /// Signatures of the pruned members (empty for singleton classes).
    pub pruned: Vec<String>,
}

/// The cross-template semantic report `xtask audit-equivalence` renders
/// and ratchets: canonical equivalence classes over a bank and its merge
/// records, differential verification of every merge, and the subsumption
/// preorder over class representatives.
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// One class per admitted template, in bank insertion order.
    pub classes: Vec<EquivalenceClass>,
    /// Templates pruned per kind (`KindSlot as usize` for sql/logic/arith).
    pub pruned_per_kind: [usize; 3],
    /// Merges that passed the differential witness.
    pub verified_merges: usize,
    /// Merges that did not — must be zero (the audit's hard gate). Each
    /// failure is described in `failures`.
    pub unverified_merges: usize,
    pub failures: Vec<String>,
    /// Ordered representative pairs (a, b), a ≠ b, where `a` subsumes `b`.
    pub subsumption_edges: usize,
}

impl EquivalenceReport {
    /// Builds the report for `bank` and the merges its miner performed,
    /// running the differential witness `seeds` times per table per merge.
    pub fn over(bank: &TemplateBank, merges: &[MergeRecord], seeds: u32) -> EquivalenceReport {
        let mut classes: Vec<EquivalenceClass> = bank
            .canonical_keys()
            .iter()
            .enumerate()
            .map(|(i, key)| EquivalenceClass {
                representative: i,
                canonical: key.clone(),
                pruned: Vec::new(),
            })
            .collect();
        let mut pruned_per_kind = [0usize; 3];
        let mut verified = 0usize;
        let mut failures = Vec::new();
        for m in merges {
            if let Some(k) = pruned_per_kind.get_mut(m.kind as usize) {
                *k += 1;
            }
            classes[m.representative].pruned.push(m.pruned.signature());
            let witness = verify_merge(&m.pruned, &bank.templates()[m.representative], seeds);
            if witness.verified() {
                verified += 1;
            } else {
                failures.push(format!(
                    "{}: {} => {}: {}",
                    m.kind.name(),
                    m.pruned.signature(),
                    bank.templates()[m.representative].signature(),
                    witness.mismatch.unwrap_or_else(|| "no productive witness cell".to_string()),
                ));
            }
        }
        let analyses: Vec<AnalyzedTemplate> =
            bank.templates().iter().map(AnalyzedTemplate::of).collect();
        let mut subsumption_edges = 0usize;
        for (i, a) in analyses.iter().enumerate() {
            for (j, b) in analyses.iter().enumerate() {
                if i != j && subsumes(a, b) {
                    subsumption_edges += 1;
                }
            }
        }
        EquivalenceReport {
            classes,
            pruned_per_kind,
            verified_merges: verified,
            unverified_merges: failures.len(),
            failures,
            subsumption_edges,
        }
    }

    /// Total classes (one per admitted template).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Classes that absorbed at least one pruned template.
    pub fn merged_classes(&self) -> usize {
        self.classes.iter().filter(|c| !c.pruned.is_empty()).count()
    }

    /// Total templates pruned across kinds.
    pub fn pruned_total(&self) -> usize {
        self.pruned_per_kind.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzed_template_carries_kind_signature_and_requirement() {
        let a = analyze_text(KindSlot::Sql, "select c1 from w where c2 = val1");
        assert!(a.is_clean(), "{:?}", a.issues);
        assert_eq!(a.kind, KindSlot::Sql);
        assert_eq!(a.requirement.min_cols, 2);
        assert_eq!(a.requirement.min_rows, 1, "paired value hole needs a row to sample from");
    }

    #[test]
    fn any_template_analyze_matches_per_crate_analyzers() {
        let sql = SqlTemplate::parse("select c1 from w order by c2_number desc limit 1")
            .unwrap_or_else(|e| panic!("sql: {e}"));
        let any = AnyTemplate::Sql(sql.clone());
        assert_eq!(any.analyze(), sqlexec::analysis::analyze(&sql));
        assert_eq!(any.canonicalize(), sqlexec::canon::canonical_form(&sql));
        let lf = LfTemplate::parse("eq { max { all_rows ; c1 } ; val1 }")
            .unwrap_or_else(|e| panic!("lf: {e}"));
        let any = AnyTemplate::Logic(lf.clone());
        assert_eq!(any.analyze(), logicforms::analysis::analyze(&lf));
        assert_eq!(any.canonicalize(), logicforms::canon::canonical_form(&lf));
        let ae = AeTemplate::parse("table_sum( c1 )").unwrap_or_else(|e| panic!("ae: {e}"));
        let any = AnyTemplate::Arith(ae.clone());
        assert_eq!(any.analyze(), arithexpr::analysis::analyze(&ae));
        assert_eq!(any.canonicalize(), arithexpr::canon::canonical_form(&ae));
    }

    fn arith(text: &str) -> AnyTemplate {
        AnyTemplate::Arith(AeTemplate::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}")))
    }

    #[test]
    fn the_witness_zoo_is_complete() {
        // `witness_tables` drops malformed literals instead of panicking;
        // this pin guarantees none actually are.
        let names: Vec<String> = witness_tables().iter().map(|t| t.title.clone()).collect();
        assert_eq!(names, ["clubs", "financials", "single", "dupes", "numeric", "textonly"]);
    }

    #[test]
    fn verify_merge_confirms_true_merges() {
        // Commutative-operand sort: alpha-equal up to argument order.
        let w = verify_merge(&arith("add( val1 , 100 )"), &arith("add( 100 , val1 )"), 8);
        assert!(w.verified(), "{:?}", w.mismatch);
        assert!(w.productive > 0);
        // Symmetric root comparator swap.
        let a = AnyTemplate::Logic(
            LfTemplate::parse("eq { count { all_rows } ; val1 }").unwrap_or_else(|e| panic!("{e}")),
        );
        let b = AnyTemplate::Logic(
            LfTemplate::parse("eq { val1 ; count { all_rows } }").unwrap_or_else(|e| panic!("{e}")),
        );
        let w = verify_merge(&a, &b, 8);
        assert!(w.verified(), "{:?}", w.mismatch);
        // SQL comparison orientation flip.
        let a = AnyTemplate::Sql(
            SqlTemplate::parse("select c1 from w where val1 = c2")
                .unwrap_or_else(|e| panic!("{e}")),
        );
        let b = AnyTemplate::Sql(
            SqlTemplate::parse("select c1 from w where c2 = val1")
                .unwrap_or_else(|e| panic!("{e}")),
        );
        let w = verify_merge(&a, &b, 8);
        assert!(w.verified(), "{:?}", w.mismatch);
    }

    #[test]
    fn verify_merge_refutes_inequivalent_templates() {
        // Order matters under subtraction: the differential harness is a
        // real check, not a rubber stamp.
        let w = verify_merge(&arith("subtract( val1 , 100 )"), &arith("subtract( 100 , val1 )"), 8);
        assert!(!w.verified());
        assert!(w.mismatch.is_some());
    }

    #[test]
    fn subsumption_is_a_preorder_on_analyses() {
        let narrow = analyze_text(KindSlot::Sql, "select c1 from w where c2 = val1");
        let wide = analyze_text(KindSlot::Sql, "select c1 from w");
        for a in [&narrow, &wide] {
            assert!(subsumes(a, a), "subsumption is reflexive");
        }
        // The filtered lookup needs a strictly stronger schema, so the
        // unfiltered one can never subsume on coverage grounds alone
        // unless the requirement direction holds.
        assert!(narrow.requirement.implies(&wide.requirement));
        assert!(!wide.requirement.implies(&narrow.requirement));
        assert!(!subsumes(&narrow, &wide), "weaker-requirement template is not covered");
    }

    #[test]
    fn equivalence_report_classifies_verifies_and_gates() {
        use crate::mining::{MineOutcome, Miner};
        let fin = crate::mining::fin_probe_table();
        let clubs = crate::mining::sql_probe_table();
        let mut miner = Miner::new();
        assert_eq!(
            miner.mine_program(KindSlot::Arith, "add( the 2019 of Revenue , 100 )", &fin),
            MineOutcome::Mined
        );
        assert_eq!(
            miner.mine_program(KindSlot::Arith, "add( 100 , the 2019 of Revenue )", &fin),
            MineOutcome::EquivalentTo(0),
            "operand-swapped commutative program merges into the first admission"
        );
        assert_eq!(
            miner.mine_program(KindSlot::Logic, "eq { count { all_rows } ; 4 }", &clubs),
            MineOutcome::Mined
        );
        assert_eq!(
            miner.mine_program(KindSlot::Logic, "eq { 4 ; count { all_rows } }", &clubs),
            MineOutcome::EquivalentTo(1)
        );
        assert_eq!(miner.stats().kind(KindSlot::Arith).equivalent, 1);
        assert_eq!(miner.stats().kind(KindSlot::Logic).equivalent, 1);
        assert_eq!(miner.merges().len(), 2);
        let report = EquivalenceReport::over(miner.bank(), miner.merges(), 8);
        assert_eq!(report.class_count(), 2, "one class per admitted template");
        assert_eq!(report.pruned_total(), 2);
        assert_eq!(report.merged_classes(), 2);
        assert_eq!(report.verified_merges, 2);
        assert_eq!(report.unverified_merges, 0, "failures: {:?}", report.failures);
        assert!(report.classes.iter().all(|c| c.canonical.contains(':')));
    }

    #[test]
    fn parse_failures_become_diagnostics() {
        let a = analyze_text(KindSlot::Logic, "eq { count {");
        assert_eq!(a.issues.len(), 1);
        assert_eq!(a.issues[0].code, PARSE_ERROR);
        assert_eq!(a.signature, "eq { count {", "raw text stands in for the signature");
        assert!(a.requirement.is_trivial());

        let none = parse_any(KindSlot::None, "anything");
        assert_eq!(none.err().map(|d| d.code), Some(PARSE_ERROR));
    }

    #[test]
    fn diagnostics_render_kind_template_locus() {
        let a = analyze_text(KindSlot::Logic, "count { all_rows }");
        assert!(!a.is_clean());
        let diags = a.into_diagnostics();
        assert_eq!(diags.len(), 1);
        let rendered = diags.to_string();
        assert!(rendered.starts_with("logic:"), "{rendered}");
        assert!(rendered.contains("non-boolean-root"), "{rendered}");
    }

    #[test]
    fn clean_analysis_yields_empty_diagnostics() {
        let a = analyze_text(KindSlot::Arith, "subtract( val1 , val2 )");
        assert!(a.is_clean());
        let diags = a.clone().into_diagnostics();
        assert!(diags.is_empty());
        assert_eq!(diags, TemplateDiagnostics::default());
    }
}
