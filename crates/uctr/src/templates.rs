//! Program-template collection (paper §IV-B).
//!
//! The paper mines program templates from three seed corpora — SQUALL for
//! SQL, LOGIC2TEXT for logical forms, FinQA for arithmetic expressions —
//! replacing column names and values with typed placeholders and then
//! running a *filtration procedure* that drops redundant templates (two
//! questions with the same underlying logic abstract to the same template).
//!
//! The reproduction ships the same machinery: [`TemplateBank`] holds the
//! deduplicated templates, supports mining new ones from concrete programs
//! via the per-crate `abstract_*` functions, and provides
//! [`TemplateBank::builtin`] — a bank transcribed from the template
//! families those corpora contain, stratified over the reasoning types the
//! paper enumerates (§II-C).

use crate::analysis::{parse_any, AnalyzedTemplate, TemplateDiagnostics};
use crate::program::AnyTemplate;
use crate::telemetry::KindSlot;
use arithexpr::AeTemplate;
use logicforms::LfTemplate;
use rand::seq::SliceRandom;
use rand::Rng;
use rustc_hash::{FxHashMap, FxHashSet};
use sqlexec::SqlTemplate;
use std::borrow::Cow;
use tabular::{ExecContext, SchemaRequirement};

/// Number of storable template kinds (`sql` / `logic` / `arith` — the
/// `none` slot holds no templates).
const N_TEMPLATE_KINDS: usize = 3;

/// A deduplicated, kind-stratified collection of program templates.
///
/// All templates live in one `Vec<AnyTemplate>` in insertion order; the
/// `by_kind` index stratifies them so that per-kind sampling
/// ([`TemplateBank::choose`]) stays O(1) and draws the same RNG stream as
/// sampling from a dedicated per-kind vector would.
#[derive(Debug, Clone, Default)]
pub struct TemplateBank {
    templates: Vec<AnyTemplate>,
    /// `requirements[i]` is the statically computed [`SchemaRequirement`]
    /// of `templates[i]` (see `crate::analysis`); the pipeline prefilter
    /// reads it through [`TemplateBank::feasible_set`].
    requirements: Vec<SchemaRequirement>,
    /// Sampling slots into `templates`, stratified by `KindSlot as usize`.
    /// One slot per *admission attempt* that survived signature filtration:
    /// an admitted template gets a slot at its own index, and a canonical
    /// equivalent leaves a slot pointing at its class representative. Since
    /// an equivalent instantiates identically to its representative under
    /// every RNG stream, the slot keeps the bank's draw distribution — and
    /// its mean per-attempt cost — exactly what it would be without
    /// canonical pruning, while `templates` stores each class once.
    by_kind: [Vec<usize>; N_TEMPLATE_KINDS],
    /// The inverted schema index: the *distinct* requirement lattice points
    /// occurring in the bank, in first-seen order. Requirements bucket on
    /// the same point exactly when all their fields (min rows / cols /
    /// per-type cols / addressable cells / needs-number) coincide, so a
    /// context is checked once per point, not once per template.
    points: Vec<SchemaRequirement>,
    /// `point_of[i]` is the index into `points` of `requirements[i]`.
    point_of: Vec<usize>,
    signatures: FxHashSet<String>,
    /// `canon_keys[i]` is the kind-prefixed canonical form of
    /// `templates[i]` — its equivalence-class id (see the per-crate `canon`
    /// modules). Within one bank every class has exactly one member: the
    /// class *representative*, the first-added template of its class.
    canon_keys: Vec<String>,
    /// Canonical key → representative index into `templates`.
    canon: FxHashMap<String, usize>,
}

/// How [`TemplateBank::try_add_classified`] disposed of a well-typed
/// template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// Novel signature *and* novel canonical form; admitted at this index.
    Added(usize),
    /// A template of the same kind with the same exact signature is
    /// already present (the paper's filtration step).
    DuplicateSignature,
    /// Novel signature, but canonically equivalent to `templates[i]` —
    /// same instantiation behavior under every RNG stream, so storing it
    /// would be pure duplication. The representative inherits the sampling
    /// slot the equivalent would have occupied (keeping the draw
    /// distribution identical to the unpruned bank), and the caller gets
    /// the representative's index (the miner records it as a merge to
    /// verify differentially).
    EquivalentTo(usize),
}

impl TemplateBank {
    /// An empty bank.
    pub fn new() -> TemplateBank {
        TemplateBank::default()
    }

    /// The built-in bank (SQUALL / Logic2Text / FinQA-style families).
    ///
    /// Infallible wrapper over [`TemplateBank::builtin_checked`]: the
    /// builtin templates are diagnostic-clean by construction, pinned by a
    /// unit test here and by the `xtask audit-templates` CI gate, so the
    /// error arm is unreachable in a green build.
    pub fn builtin() -> TemplateBank {
        TemplateBank::builtin_checked().unwrap_or_default()
    }

    /// Parses, typechecks and collects the builtin templates, reporting
    /// parse failures and type defects as structured
    /// [`TemplateDiagnostics`] instead of panicking.
    pub fn builtin_checked() -> Result<TemplateBank, TemplateDiagnostics> {
        let mut bank = TemplateBank::new();
        let mut diagnostics = Vec::new();
        for (kind, sources) in [
            (KindSlot::Sql, BUILTIN_SQL),
            (KindSlot::Logic, BUILTIN_LOGIC),
            (KindSlot::Arith, BUILTIN_ARITH),
        ] {
            for t in sources {
                if let Err(d) = bank.try_add_source(kind, t) {
                    diagnostics.extend(d.diagnostics);
                }
            }
        }
        if diagnostics.is_empty() {
            Ok(bank)
        } else {
            Err(TemplateDiagnostics { diagnostics })
        }
    }

    /// Adds a template of any kind; returns false if a template of the
    /// same kind with the same signature is already present (the paper's
    /// filtration step), or if the template is ill-typed (see
    /// [`TemplateBank::try_add`] for the diagnostics). Signatures are
    /// prefixed per kind, so identical surface text in different DSLs
    /// never collides.
    pub fn add(&mut self, t: AnyTemplate) -> bool {
        self.try_add(t).unwrap_or(false)
    }

    /// Adds a template of any kind after statically typechecking it.
    /// `Err` carries the analyzer's diagnostics for an ill-typed template
    /// (one `try_instantiate` would deterministically reject on every
    /// table); `Ok(false)` means a well-typed duplicate — exact signature
    /// *or* canonical equivalent — was filtered (see
    /// [`TemplateBank::try_add_classified`] to tell the two apart).
    pub fn try_add(&mut self, t: AnyTemplate) -> Result<bool, TemplateDiagnostics> {
        self.try_add_classified(t).map(|o| matches!(o, AddOutcome::Added(_)))
    }

    /// [`TemplateBank::try_add`] with the duplicate arm split: exact
    /// signature collisions and canonical-form equivalences report
    /// different [`AddOutcome`]s, and equivalences name the surviving
    /// representative. Survivor state (insertion order, lattice points) is
    /// written exactly as before; an equivalence additionally appends a
    /// sampling slot for the representative (see [`AddOutcome`]), so the
    /// pruned bank's draw distribution matches the unpruned bank's.
    pub fn try_add_classified(
        &mut self,
        t: AnyTemplate,
    ) -> Result<AddOutcome, TemplateDiagnostics> {
        let analyzed = AnalyzedTemplate::of(&t);
        if !analyzed.is_clean() {
            return Err(analyzed.into_diagnostics());
        }
        let sig = format!("{}:{}", kind_prefix(analyzed.kind), analyzed.signature);
        if self.signatures.contains(&sig) {
            return Ok(AddOutcome::DuplicateSignature);
        }
        let key = format!("{}:{}", kind_prefix(analyzed.kind), t.canonicalize());
        if let Some(&rep) = self.canon.get(&key) {
            // The representative inherits the slot this template would have
            // taken: the stratum keeps one entry per surviving admission
            // attempt, so sampling draws the same stream — and the same
            // per-attempt cost distribution — as the unpruned bank, while
            // the template itself is stored only once.
            self.by_kind[analyzed.kind as usize].push(rep);
            return Ok(AddOutcome::EquivalentTo(rep));
        }
        self.signatures.insert(sig);
        let index = self.templates.len();
        self.canon.insert(key.clone(), index);
        self.canon_keys.push(key);
        self.by_kind[analyzed.kind as usize].push(index);
        self.templates.push(t);
        // Bucket the requirement on its lattice point. The number of
        // distinct points is tiny compared to the number of templates
        // (requirements only record small row/column minima), so a
        // linear probe beats hashing here and keeps the first-seen
        // order deterministic.
        let point = match self.points.iter().position(|p| *p == analyzed.requirement) {
            Some(p) => p,
            None => {
                self.points.push(analyzed.requirement);
                self.points.len() - 1
            }
        };
        self.point_of.push(point);
        self.requirements.push(analyzed.requirement);
        Ok(AddOutcome::Added(index))
    }

    /// Parses a template of `kind` from surface text and
    /// [`TemplateBank::try_add`]s it; parse failures surface as a
    /// `parse-error` diagnostic.
    pub fn try_add_source(
        &mut self,
        kind: KindSlot,
        text: &str,
    ) -> Result<bool, TemplateDiagnostics> {
        match parse_any(kind, text) {
            Ok(t) => self.try_add(t),
            Err(d) => Err(TemplateDiagnostics { diagnostics: vec![d] }),
        }
    }

    /// Adds a SQL template with dedup.
    pub fn add_sql(&mut self, t: SqlTemplate) -> bool {
        self.add(AnyTemplate::Sql(t))
    }

    /// Adds a logical-form template with dedup.
    pub fn add_logic(&mut self, t: LfTemplate) -> bool {
        self.add(AnyTemplate::Logic(t))
    }

    /// Adds an arithmetic template with dedup.
    pub fn add_arith(&mut self, t: AeTemplate) -> bool {
        self.add(AnyTemplate::Arith(t))
    }

    /// Mines a template from a concrete SQL query over `table`.
    pub fn mine_sql(&mut self, stmt: &sqlexec::SelectStmt, table: &tabular::Table) -> bool {
        self.add_sql(sqlexec::abstract_query(stmt, table))
    }

    /// Mines a template from a concrete logical form.
    pub fn mine_logic(&mut self, expr: &logicforms::LfExpr) -> bool {
        self.add_logic(logicforms::abstract_form(expr))
    }

    /// Mines a template from a concrete arithmetic program.
    pub fn mine_arith(&mut self, program: &arithexpr::AeProgram) -> bool {
        self.add_arith(arithexpr::abstract_program(program))
    }

    /// Samples a template of `kind` uniformly over the sampling slots — a
    /// representative carrying equivalence weight is drawn once per slot,
    /// so the distribution matches the unpruned bank. `None` when the bank
    /// holds no template of that kind (or `kind` is [`KindSlot::None`]).
    /// Consumes exactly one `gen_range` draw when templates of the kind
    /// exist — the same stream a `slice::choose` over a dedicated per-kind
    /// vector would consume.
    pub fn choose(&self, kind: KindSlot, rng: &mut impl Rng) -> Option<&AnyTemplate> {
        let stratum = self.by_kind.get(kind as usize)?;
        stratum.choose(rng).map(|&i| &self.templates[i])
    }

    /// The feasible template set of `ctx`: for each kind, the
    /// slot-ordered sampling slots whose [`SchemaRequirement`] the
    /// context satisfies (a feasible representative keeps every one of its
    /// equivalence-weight slots). This is the inverted-index replacement for the
    /// per-pair `satisfied_by` check: `satisfied_by` runs once per
    /// *distinct lattice point* per context (not once per template, and
    /// not once per attempt), and every subsequent
    /// [`FeasibleSet::choose`] is a single uniform draw.
    ///
    /// When the context satisfies every lattice point, the set borrows the
    /// bank's strata without allocating — and sampling from it is
    /// stream-identical to [`TemplateBank::choose`] (the fixed-seed golden
    /// digests rely on this; see `tests/golden_pipeline.rs`).
    pub fn feasible_set(&self, ctx: &ExecContext) -> FeasibleSet<'_> {
        let mut infeasible: Vec<usize> = Vec::new(); // no alloc until first push
        for (p, req) in self.points.iter().enumerate() {
            if !req.satisfied_by(ctx) {
                infeasible.push(p);
            }
        }
        let by_kind = std::array::from_fn(|k| {
            let stratum = self.by_kind[k].as_slice();
            if infeasible.is_empty()
                || !stratum.iter().any(|&i| infeasible.contains(&self.point_of[i]))
            {
                Cow::Borrowed(stratum)
            } else {
                Cow::Owned(
                    stratum
                        .iter()
                        .copied()
                        .filter(|&i| !infeasible.contains(&self.point_of[i]))
                        .collect(),
                )
            }
        });
        FeasibleSet { bank: self, by_kind }
    }

    /// Number of sampling slots of `kind` (zero for [`KindSlot::None`]).
    /// At least the number of distinct templates of the kind; larger when
    /// canonical equivalents left weight slots on their representatives.
    pub fn stratum_len(&self, kind: KindSlot) -> usize {
        self.by_kind.get(kind as usize).map_or(0, Vec::len)
    }

    /// The sampling slots of `kind`: indices into [`TemplateBank::templates`],
    /// one per surviving admission attempt, in admission order. An index
    /// repeats once per canonical equivalent merged into it (empty for
    /// [`KindSlot::None`]).
    pub fn stratum(&self, kind: KindSlot) -> &[usize] {
        self.by_kind.get(kind as usize).map_or(&[][..], Vec::as_slice)
    }

    /// The distinct requirement lattice points, in first-seen order.
    pub fn lattice_points(&self) -> &[SchemaRequirement] {
        &self.points
    }

    /// All distinct templates of one kind, in insertion order. Iterates
    /// the deduplicated store, not the sampling slots, so a representative
    /// carrying equivalence weight still appears exactly once.
    fn of_kind(&self, kind: KindSlot) -> impl Iterator<Item = &AnyTemplate> {
        self.templates.iter().filter(move |t| t.kind() == kind)
    }

    /// The SQL templates, in insertion order.
    pub fn sql(&self) -> Vec<&SqlTemplate> {
        self.of_kind(KindSlot::Sql)
            .filter_map(|t| match t {
                AnyTemplate::Sql(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    /// The logical-form templates, in insertion order.
    pub fn logic(&self) -> Vec<&LfTemplate> {
        self.of_kind(KindSlot::Logic)
            .filter_map(|t| match t {
                AnyTemplate::Logic(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    /// The arithmetic templates, in insertion order.
    pub fn arith(&self) -> Vec<&AeTemplate> {
        self.of_kind(KindSlot::Arith)
            .filter_map(|t| match t {
                AnyTemplate::Arith(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    /// All templates across kinds, in insertion order.
    pub fn templates(&self) -> &[AnyTemplate] {
        &self.templates
    }

    /// The per-template schema requirements, parallel to
    /// [`TemplateBank::templates`].
    pub fn requirements(&self) -> &[SchemaRequirement] {
        &self.requirements
    }

    /// The kind-prefixed canonical keys (equivalence-class ids), parallel
    /// to [`TemplateBank::templates`]. Pairwise distinct by construction:
    /// [`TemplateBank::try_add_classified`] turns later members of a class
    /// away, so the stored template *is* its class representative.
    pub fn canonical_keys(&self) -> &[String] {
        &self.canon_keys
    }

    pub fn len(&self) -> usize {
        self.templates.len()
    }

    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

/// One context's feasible view of a [`TemplateBank`], produced by
/// [`TemplateBank::feasible_set`].
///
/// Per kind it holds the slot-ordered sampling slots of the templates
/// whose requirement the context satisfies (a representative carrying
/// equivalence weight keeps one slot per merged equivalent) — borrowed
/// straight from the bank's stratum when the whole stratum is feasible
/// (the common case; zero allocations), an owned filtered list otherwise.
#[derive(Debug, Clone)]
pub struct FeasibleSet<'a> {
    bank: &'a TemplateBank,
    by_kind: [Cow<'a, [usize]>; N_TEMPLATE_KINDS],
}

impl<'a> FeasibleSet<'a> {
    /// Samples a feasible template of `kind` uniformly. `None` when no
    /// template of the kind is feasible (or `kind` is [`KindSlot::None`]).
    /// Consumes exactly one `gen_range` draw when the feasible stratum is
    /// non-empty, none otherwise — when the whole stratum is feasible this
    /// is the same RNG stream as [`TemplateBank::choose`].
    pub fn choose(&self, kind: KindSlot, rng: &mut impl Rng) -> Option<&'a AnyTemplate> {
        let feasible = self.by_kind.get(kind as usize)?;
        feasible.choose(rng).map(|&i| &self.bank.templates[i])
    }

    /// The feasible sampling slots of `kind`, in bank slot order — may
    /// repeat a representative's index once per merged equivalent (empty
    /// for [`KindSlot::None`]).
    pub fn indices(&self, kind: KindSlot) -> &[usize] {
        self.by_kind.get(kind as usize).map_or(&[][..], |c| c.as_ref())
    }

    /// Number of feasible sampling slots of `kind`.
    pub fn len(&self, kind: KindSlot) -> usize {
        self.indices(kind).len()
    }

    /// True when no template of `kind` is feasible.
    pub fn is_empty(&self, kind: KindSlot) -> bool {
        self.indices(kind).is_empty()
    }

    /// True when the view borrows the bank's full stratum for `kind`
    /// (i.e. the context satisfies every lattice point backing it).
    pub fn is_full_stratum(&self, kind: KindSlot) -> bool {
        self.by_kind.get(kind as usize).is_some_and(|c| matches!(c, Cow::Borrowed(_)))
    }
}

fn kind_prefix(kind: KindSlot) -> &'static str {
    match kind {
        KindSlot::Sql => "sql",
        KindSlot::Logic => "lf",
        KindSlot::Arith => "ae",
        KindSlot::None => "none",
    }
}

/// SQUALL-style SQL templates, covering the paper's SQL reasoning types:
/// equivalence, comparison, counting, sum, diff, conjunction.
pub const BUILTIN_SQL: &[&str] = &[
    // superlatives (comparison via order by)
    "select c1 from w order by c2_number desc limit 1",
    "select c1 from w order by c2_number asc limit 1",
    "select c1 from w where c3 = val1 order by c2_number desc limit 1",
    // equivalence lookups
    "select c1 from w where c2 = val1",
    "select c1_number from w where c2 = val1",
    // conjunction
    "select c1 from w where c2 = val1 and c3 = val2",
    "select c1 from w where c2_number > val1 and c3 = val2",
    // comparison filters
    "select c1 from w where c2_number > val1",
    "select c1 from w where c2_number < val1",
    // counting
    "select count ( * ) from w where c1 = val1",
    "select count ( * ) from w where c1_number > val1",
    "select count ( * ) from w where c1_number < val1",
    "select count ( distinct c1 ) from w",
    // aggregation (sum / avg / extremes)
    "select sum ( c1_number ) from w",
    "select avg ( c1_number ) from w",
    "select max ( c1_number ) from w",
    "select min ( c1_number ) from w",
    "select sum ( c1_number ) from w where c2 = val1",
    "select avg ( c1_number ) from w where c2 = val1",
    // diff between columns
    "select c1_number - c2_number from w where c3 = val1",
];

/// Logic2Text-style logical-form templates across the seven logic types.
pub const BUILTIN_LOGIC: &[&str] = &[
    // count
    "eq { count { filter_eq { all_rows ; c1 ; val1 } } ; val2 }",
    "eq { count { filter_greater { all_rows ; c1 ; val1 } } ; val2 }",
    "eq { count { filter_less { all_rows ; c1 ; val1 } } ; val2 }",
    // superlative
    "eq { hop { argmax { all_rows ; c1 ; } ; c2 } ; val1 }",
    "eq { hop { argmin { all_rows ; c1 ; } ; c2 } ; val1 }",
    "eq { max { all_rows ; c1 } ; val1 }",
    "eq { min { all_rows ; c1 } ; val1 }",
    // ordinal
    "eq { hop { nth_argmax { all_rows ; c1 ; val1 } ; c2 } ; val2 }",
    "eq { hop { nth_argmin { all_rows ; c1 ; val1 } ; c2 } ; val2 }",
    "eq { nth_max { all_rows ; c1 ; val1 } ; val2 }",
    "eq { nth_min { all_rows ; c1 ; val1 } ; val2 }",
    // aggregation
    "round_eq { avg { all_rows ; c1 } ; val1 }",
    "round_eq { sum { all_rows ; c1 } ; val1 }",
    "round_eq { avg { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; val2 }",
    // comparative
    "greater { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; hop { filter_eq { all_rows ; c1 ; val2 } ; c2 } }",
    "less { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; hop { filter_eq { all_rows ; c1 ; val2 } ; c2 } }",
    "eq { diff { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; hop { filter_eq { all_rows ; c1 ; val2 } ; c2 } } ; val3 }",
    // majority
    "most_greater { all_rows ; c1 ; val1 }",
    "most_less { all_rows ; c1 ; val1 }",
    "most_eq { all_rows ; c1 ; val1 }",
    "all_greater { all_rows ; c1 ; val1 }",
    "all_less { all_rows ; c1 ; val1 }",
    // unique
    "only { filter_eq { all_rows ; c1 ; val1 } }",
    "only { filter_greater { all_rows ; c1 ; val1 } }",
];

/// FinQA-style arithmetic templates (the counting/arithmetic families of
/// TAT-QA).
pub const BUILTIN_ARITH: &[&str] = &[
    // percentage change (the paper's running example)
    "subtract( val1 , val2 ) , divide( #0 , val2 )",
    // difference / change
    "subtract( val1 , val2 )",
    // total
    "add( val1 , val2 )",
    // average of two
    "add( val1 , val2 ) , divide( #0 , 2 )",
    // ratio
    "divide( val1 , val2 )",
    // comparison
    "greater( val1 , val2 )",
    // proportion of a total
    "table_sum( c1 ) , divide( val1 , #0 )",
    // column aggregations
    "table_sum( c1 )",
    "table_average( c1 )",
    "table_max( c1 )",
    "table_min( c1 )",
    // compound: change in sum
    "table_sum( c1 ) , table_sum( c2 ) , subtract( #0 , #1 )",
];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::Table;

    fn sql(text: &str) -> SqlTemplate {
        SqlTemplate::parse(text).unwrap_or_else(|e| panic!("sql template {text:?}: {e}"))
    }

    fn logic(text: &str) -> LfTemplate {
        LfTemplate::parse(text).unwrap_or_else(|e| panic!("lf template {text:?}: {e}"))
    }

    #[test]
    fn builtin_bank_parses_and_is_deduped() {
        let bank = TemplateBank::builtin();
        assert_eq!(bank.sql().len(), BUILTIN_SQL.len());
        assert_eq!(bank.logic().len(), BUILTIN_LOGIC.len());
        assert_eq!(bank.arith().len(), BUILTIN_ARITH.len());
        assert_eq!(bank.len(), BUILTIN_SQL.len() + BUILTIN_LOGIC.len() + BUILTIN_ARITH.len());
        assert_eq!(bank.requirements().len(), bank.len());
    }

    #[test]
    fn builtin_bank_is_diagnostic_clean() {
        // The contract behind the infallible `builtin()` wrapper (and the
        // `xtask audit-templates` CI gate): every builtin template parses
        // and typechecks.
        match TemplateBank::builtin_checked() {
            Ok(bank) => assert_eq!(
                bank.len(),
                BUILTIN_SQL.len() + BUILTIN_LOGIC.len() + BUILTIN_ARITH.len()
            ),
            Err(diags) => panic!("builtin bank has diagnostics:\n{diags}"),
        }
    }

    #[test]
    fn dedup_rejects_duplicates() {
        let mut bank = TemplateBank::new();
        let t = sql("select c1 from w where c2 = val1");
        assert!(bank.add_sql(t.clone()));
        assert!(!bank.add_sql(t));
        assert_eq!(bank.sql().len(), 1);
    }

    #[test]
    fn builtin_canonical_forms_are_pairwise_distinct() {
        // The golden-pipeline digests pin sampling over the full builtin
        // strata, so canonical dedup must never turn a builtin away: every
        // builtin must be its own equivalence class.
        let bank = TemplateBank::builtin();
        assert_eq!(bank.len(), BUILTIN_SQL.len() + BUILTIN_LOGIC.len() + BUILTIN_ARITH.len());
        let keys = bank.canonical_keys();
        assert_eq!(keys.len(), bank.len());
        for (i, k) in keys.iter().enumerate() {
            assert!(
                keys[..i].iter().all(|other| other != k),
                "builtin template {i} ({}) shares canonical key {k}",
                bank.templates()[i].signature()
            );
        }
    }

    #[test]
    fn canonically_equivalent_templates_are_turned_away() {
        let mut bank = TemplateBank::new();
        let first = sql("select c1 from w where c2 = val1");
        let flipped = sql("select c1 from w where val1 = c2");
        assert_eq!(
            bank.try_add_classified(AnyTemplate::Sql(first.clone())),
            Ok(AddOutcome::Added(0))
        );
        assert_eq!(
            bank.try_add_classified(AnyTemplate::Sql(first)),
            Ok(AddOutcome::DuplicateSignature),
            "exact re-add reports a signature duplicate, not an equivalence"
        );
        assert_eq!(
            bank.try_add_classified(AnyTemplate::Sql(flipped)),
            Ok(AddOutcome::EquivalentTo(0)),
            "orientation-flipped comparison merges into its representative"
        );
        assert_eq!(bank.len(), 1, "equivalents never enter the bank");
        // The infallible wrapper folds both duplicate flavors into false.
        assert!(!bank.add_sql(sql("select c1 from w where val3 = c7")));
        assert_eq!(bank.canonical_keys().len(), 1);
        // Both equivalents left weight slots on the representative; the
        // exact signature duplicate left none.
        assert_eq!(bank.stratum_len(crate::telemetry::KindSlot::Sql), 3);
        assert_eq!(bank.stratum(crate::telemetry::KindSlot::Sql), [0, 0, 0]);
    }

    #[test]
    fn equivalence_weight_slots_preserve_the_unpruned_draw_stream() {
        // A pruned equivalent instantiates identically to its
        // representative under every RNG stream (`analysis::verify_merge`
        // witnesses that), so the unpruned bank's draw stream maps
        // slot-for-slot onto the pruned bank's — provided the
        // representative inherits the equivalent's slot. Pin that mapping:
        // sampling the pruned bank must be stream-identical to a
        // `slice::choose` over the counterfactual unpruned stratum.
        let mut bank = TemplateBank::new();
        let rep = "select c1 from w where c2 = val1";
        let other = "select c3 from w";
        assert_eq!(bank.try_add_classified(AnyTemplate::Sql(sql(rep))), Ok(AddOutcome::Added(0)));
        assert_eq!(bank.try_add_classified(AnyTemplate::Sql(sql(other))), Ok(AddOutcome::Added(1)));
        assert_eq!(
            bank.try_add_classified(AnyTemplate::Sql(sql("select c1 from w where val1 = c2"))),
            Ok(AddOutcome::EquivalentTo(0))
        );
        assert_eq!(bank.len(), 2, "the equivalent is stored only as weight");
        assert_eq!(bank.stratum(crate::telemetry::KindSlot::Sql), [0, 1, 0]);
        // The flipped template draws the same stream as `rep`, so the
        // unpruned stratum is [rep, other, rep] up to signature.
        let unpruned = [rep, other, rep];
        for seed in 0..32u64 {
            let mut a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut b = rand::rngs::StdRng::seed_from_u64(seed);
            let drawn = bank
                .choose(crate::telemetry::KindSlot::Sql, &mut a)
                .map(|t| t.signature())
                .unwrap_or_default();
            let expect = unpruned.choose(&mut b).copied().unwrap_or_default();
            assert_eq!(drawn, expect, "draw stream diverged at seed {seed}");
        }
    }

    #[test]
    fn dedup_does_not_collide_across_kinds() {
        // Signatures are namespaced per kind before entering the shared
        // dedup set, so templates of different kinds never collide there:
        // each kind dedups only against itself.
        let mut bank = TemplateBank::new();
        let s = sql("select c1 from w");
        let l = logic("only { filter_eq { all_rows ; c1 ; val1 } }");
        assert!(bank.add_sql(s.clone()), "first SQL admitted");
        assert!(bank.add_logic(l.clone()), "first logic admitted");
        assert!(!bank.add_sql(s), "second SQL deduped within its kind");
        assert!(!bank.add_logic(l), "second logic deduped within its kind");
        assert_eq!(bank.sql().len(), 1);
        assert_eq!(bank.logic().len(), 1);
        assert_eq!(bank.len(), 2);
    }

    #[test]
    fn cross_kind_signature_collisions_cannot_reach_the_shared_sets() {
        // No two kinds can render the same unprefixed signature today: SQL
        // statements start with `select`, logic applications brace their
        // arguments (`op { a ; b }`), arithmetic steps parenthesize them
        // (`op( a , b )`). So a literal collision cannot be constructed —
        // but the dedup *and* canonical keys still namespace by kind, so a
        // future surface-syntax overlap could never merge across DSLs.
        let prefixes = [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith].map(kind_prefix);
        for (i, p) in prefixes.iter().enumerate() {
            assert!(prefixes[i + 1..].iter().all(|q| q != p), "kind prefixes must be distinct");
        }
        // The closest pair the DSLs allow: the same operator word with the
        // same operand count. Both survive, under namespaced keys.
        let mut bank = TemplateBank::new();
        let ae = AeTemplate::parse("greater( val1 , val2 )")
            .unwrap_or_else(|e| panic!("ae template: {e}"));
        let lf = logic("greater { max { all_rows ; c1 } ; val1 }");
        assert!(bank.add_arith(ae));
        assert!(bank.add_logic(lf));
        assert_eq!(bank.len(), 2);
        assert!(bank.canonical_keys()[0].starts_with("ae:"));
        assert!(bank.canonical_keys()[1].starts_with("lf:"));
    }

    #[test]
    fn ill_typed_templates_are_rejected_with_diagnostics() {
        let mut bank = TemplateBank::new();
        // `count` does not produce a truth value, so the claim can never
        // be labeled: the analyzer rejects it before it enters the bank.
        let t = logic("count { all_rows }");
        let err = match bank.try_add(AnyTemplate::Logic(t.clone())) {
            Err(e) => e,
            Ok(admitted) => panic!("ill-typed template admitted: {admitted}"),
        };
        assert_eq!(err.len(), 1);
        assert_eq!(err.diagnostics[0].code, "non-boolean-root");
        assert_eq!(err.diagnostics[0].kind, KindSlot::Logic);
        assert!(bank.is_empty(), "rejected template must not enter the bank");
        // The infallible wrapper folds the rejection into `false`.
        assert!(!bank.add_logic(t));
        assert!(bank.is_empty());
    }

    #[test]
    fn try_add_source_reports_parse_failures() {
        let mut bank = TemplateBank::new();
        let err = match bank.try_add_source(KindSlot::Sql, "select count ( from w") {
            Err(e) => e,
            Ok(admitted) => panic!("malformed source admitted: {admitted}"),
        };
        assert_eq!(err.diagnostics[0].code, crate::analysis::PARSE_ERROR);
        assert!(bank.is_empty());
        assert_eq!(bank.try_add_source(KindSlot::Arith, "table_sum( c1 )"), Ok(true));
        assert_eq!(bank.try_add_source(KindSlot::Arith, "table_sum( c1 )"), Ok(false));
    }

    #[test]
    fn choose_is_kind_stratified() {
        let bank = TemplateBank::builtin();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..32 {
            let t = bank
                .choose(crate::telemetry::KindSlot::Arith, &mut rng)
                .unwrap_or_else(|| panic!("builtin bank has arith templates"));
            assert_eq!(t.kind(), crate::telemetry::KindSlot::Arith);
        }
        assert!(bank.choose(crate::telemetry::KindSlot::None, &mut rng).is_none());
        let empty = TemplateBank::new();
        assert!(empty.choose(crate::telemetry::KindSlot::Sql, &mut rng).is_none());
    }

    #[test]
    fn no_builtin_requirement_is_trivial() {
        let bank = TemplateBank::builtin();
        assert_eq!(bank.requirements().len(), bank.len());
        for (t, req) in bank.templates().iter().zip(bank.requirements()) {
            // Every builtin template binds at least one hole, so its
            // requirement is never the trivial bottom element.
            assert!(!req.is_trivial(), "{}", t.signature());
        }
    }

    #[test]
    fn lattice_points_are_distinct_and_cover_every_requirement() {
        let bank = TemplateBank::builtin();
        let points = bank.lattice_points();
        assert!(!points.is_empty());
        assert!(
            points.len() < bank.len(),
            "bucketing must collapse: {} points for {} templates",
            points.len(),
            bank.len()
        );
        for (i, p) in points.iter().enumerate() {
            assert!(
                points[..i].iter().all(|q| q != p),
                "lattice point {i} duplicates an earlier point"
            );
        }
        for req in bank.requirements() {
            assert_eq!(
                points.iter().filter(|p| *p == req).count(),
                1,
                "every stored requirement maps to exactly one lattice point"
            );
        }
    }

    #[test]
    fn feasible_set_borrows_full_strata_and_draws_the_choose_stream() {
        let table = Table::from_strings(
            "t",
            &[
                vec!["name", "city", "points", "wins"],
                vec!["Reds", "Oslo", "77", "21"],
                vec!["Blues", "Lima", "64", "18"],
                vec!["Greens", "Kyiv", "81", "24"],
                vec!["Golds", "Quito", "59", "15"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let bank = TemplateBank::builtin();
        let ctx = tabular::ExecContext::new(&table);
        let feasible = bank.feasible_set(&ctx);
        let mut a = StdRng::seed_from_u64(23);
        let mut b = StdRng::seed_from_u64(23);
        for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
            assert!(feasible.is_full_stratum(kind), "rich table satisfies every lattice point");
            assert_eq!(feasible.len(kind), bank.stratum_len(kind));
            for _ in 0..16 {
                let via_bank = bank.choose(kind, &mut a).map(|t| t.signature());
                let via_set = feasible.choose(kind, &mut b).map(|t| t.signature());
                assert_eq!(via_bank, via_set, "full-stratum feasible draw must match bank draw");
            }
        }
        assert!(feasible.choose(KindSlot::None, &mut b).is_none());
        // Identical residual streams: the index is byte-identity-safe.
        assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
    }

    #[test]
    fn feasible_set_filters_like_the_bruteforce_scan() {
        // A numberless two-column table: arith is entirely infeasible,
        // sql/logic keep only the templates whose requirement holds.
        let table = Table::from_strings(
            "t",
            &[vec!["name", "city"], vec!["Reds", "Oslo"], vec!["Blues", "Lima"]],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let bank = TemplateBank::builtin();
        let ctx = tabular::ExecContext::new(&table);
        let feasible = bank.feasible_set(&ctx);
        assert!(feasible.is_empty(KindSlot::Arith), "no arith template fits a numberless table");
        for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
            let brute: Vec<usize> = (0..bank.len())
                .filter(|&i| bank.templates()[i].kind() == kind)
                .filter(|&i| bank.requirements()[i].satisfied_by(&ctx))
                .collect();
            assert_eq!(feasible.indices(kind), brute.as_slice(), "kind {kind:?}");
        }
        assert!(feasible.len(KindSlot::Sql) < bank.stratum_len(KindSlot::Sql));
        let mut rng = StdRng::seed_from_u64(7);
        assert!(feasible.choose(KindSlot::Arith, &mut rng).is_none());
        for _ in 0..16 {
            let t = feasible
                .choose(KindSlot::Sql, &mut rng)
                .unwrap_or_else(|| panic!("some sql templates stay feasible"));
            let i = bank
                .templates()
                .iter()
                .position(|b| b.kind() == KindSlot::Sql && b.signature() == t.signature())
                .unwrap_or_else(|| panic!("chosen template is in the bank"));
            assert!(bank.requirements()[i].satisfied_by(&ctx));
        }
    }

    #[test]
    fn mining_abstracts_and_dedups() {
        let table =
            Table::from_strings("t", &[vec!["name", "pts"], vec!["a", "1"], vec!["b", "2"]])
                .unwrap_or_else(|e| panic!("test table: {e}"));
        let mut bank = TemplateBank::new();
        let q1 = sqlexec::parse("select [name] from w where [pts] > 1")
            .unwrap_or_else(|e| panic!("query: {e}"));
        let q2 = sqlexec::parse("select [name] from w where [pts] > 2")
            .unwrap_or_else(|e| panic!("query: {e}"));
        assert!(bank.mine_sql(&q1, &table));
        assert!(!bank.mine_sql(&q2, &table), "same logic structure must dedup");
        assert_eq!(bank.sql().len(), 1);
    }

    #[test]
    fn builtin_sql_templates_instantiate_on_a_rich_table() {
        let table = Table::from_strings(
            "t",
            &[
                vec!["name", "city", "points", "wins"],
                vec!["Reds", "Oslo", "77", "21"],
                vec!["Blues", "Lima", "64", "18"],
                vec!["Greens", "Kyiv", "81", "24"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let bank = TemplateBank::builtin();
        let ctx = ExecContext::new(&table);
        let mut scratch = sqlexec::SqlScratch::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ok = 0;
        for t in bank.sql() {
            if let Ok(stmt) = t.try_instantiate(&ctx, &mut rng, &mut scratch) {
                if sqlexec::execute(&stmt, &table, &mut scratch.kern).is_ok() {
                    ok += 1;
                }
            }
        }
        // Every builtin SQL template should fit a table with 2 text + 2
        // numeric columns.
        assert_eq!(ok, bank.sql().len());
    }

    #[test]
    fn builtin_logic_templates_instantiate() {
        let table = Table::from_strings(
            "t",
            &[
                vec!["name", "city", "points", "wins"],
                vec!["Reds", "Oslo", "77", "21"],
                vec!["Blues", "Lima", "64", "18"],
                vec!["Greens", "Kyiv", "81", "24"],
                vec!["Golds", "Quito", "59", "15"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let bank = TemplateBank::builtin();
        let ctx = ExecContext::new(&table);
        let mut scratch = logicforms::LfScratch::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut ok = 0;
        for t in bank.logic() {
            // Supported claims at minimum; some templates may fail for a
            // given truth target on a given table, but most should land.
            if t.try_instantiate(&ctx, &mut rng, true, &mut scratch).is_ok() {
                ok += 1;
            }
        }
        assert!(
            ok >= bank.logic().len() * 3 / 4,
            "only {ok}/{} logic templates instantiated",
            bank.logic().len()
        );
    }

    #[test]
    fn builtin_arith_templates_instantiate() {
        let table = Table::from_strings(
            "fin",
            &[
                vec!["item", "2019", "2018"],
                vec!["Revenue", "8800", "8000"],
                vec!["Costs", "6100", "5900"],
                vec!["Equity", "3200", "4000"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        let bank = TemplateBank::builtin();
        let ctx = ExecContext::new(&table);
        let mut scratch = arithexpr::AeScratch::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ok = 0;
        for t in bank.arith() {
            if t.try_instantiate(&ctx, &mut rng, &mut scratch).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, bank.arith().len());
    }
}
